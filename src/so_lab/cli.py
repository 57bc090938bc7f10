"""Command-line entry point.

Exit codes: 0 success / all checks pass, 1 a check failed, 2 usage or
input error, 3 enumeration budget exhausted.  Reports produced by the
check subcommands carry no volatile fields, so identical invocations
with identical seeds print byte-identical JSON.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import formulas as fm
from . import formula_space as fs
from . import structures as st
from . import types_omitting as to
from . import ultra, workbench
from .errors import BudgetExceededError, SoLabError


def _read_json(path):
    """The JSON document in the file at path.  A file that is not UTF-8,
    not JSON, or nested too deep to decode is a SoLabError naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise SoLabError(f"{path} does not decode as JSON: {exc}") from None


def _load_structure(path):
    return st.FiniteStructure.from_json_dict(_read_json(path))


def _load_family(path):
    """A directory of structure files (sorted by name) or one JSON array."""
    p = Path(path)
    if p.is_dir():
        files = sorted(p.glob("*.json"))
        if not files:
            raise SoLabError(f"no *.json structure files in {path}")
        return [(f.name, st.FiniteStructure.from_json_dict(_read_json(f))) for f in files]
    data = _read_json(p)
    if not isinstance(data, list) or not data:
        raise SoLabError(f"{path} is neither a directory nor a nonempty JSON array")
    return [(f"{path}[{i}]", st.FiniteStructure.from_json_dict(d))
            for i, d in enumerate(data)]


def _formula_from_args(args):
    if args.builtin:
        return workbench.builtin(args.builtin).formula
    if args.formula:
        return fm.parse(args.formula)
    raise SoLabError("provide --formula or --builtin")


def _family_from_args(args):
    family = [A for _, A in _load_family(args.family)]
    return family, ultra.Ultrafilter.parse(args.ultrafilter, len(family), args.cols)


def _emit(args, report, text_lines):
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=False))
    else:
        for line in text_lines:
            print(line)


def _cmd_parse(args):
    f = fm.parse(args.formula)
    free = fm.scope(f).free_fo
    report = {
        "command": "parse",
        "formula": fm.print_formula(f),
        "free_variables": list(free),
        "hierarchy": str(fm.classify(f)),
    }
    _emit(args, report, [report["formula"],
                         f"free variables: {', '.join(free) or '(none)'}",
                         f"hierarchy: {report['hierarchy']}"])
    return 0


def _cmd_classify(args):
    label = str(fm.classify(fm.parse(args.formula)))
    _emit(args, {"command": "classify", "label": label}, [label])
    return 0


def _cmd_prenex(args):
    f = fm.parse(args.formula)
    g = fm.prenex_so(f)
    report = {
        "command": "prenex",
        "input": fm.print_formula(f),
        "prenex": fm.print_formula(g),
        "label": str(fm.classify(g)),
    }
    _emit(args, report, [report["prenex"], f"hierarchy: {report['label']}"])
    return 0


def _cmd_eval(args):
    A = _load_structure(args.structure)
    f = _formula_from_args(args)
    if args.semantics == "fo":
        value = st.eval_fo(A, f, budget=args.budget)
    else:
        value = st.eval_so_full(A, f, budget=args.budget)
    report = {"command": "eval", "structure": args.structure,
              "semantics": args.semantics, "result": value}
    _emit(args, report, ["true" if value else "false"])
    return 0


def _cmd_ultraproduct(args):
    family, U = _family_from_args(args)
    result = ultra.ultraproduct(family, U)
    report = {
        "command": "ultraproduct",
        "ultrafilter": U.literal(),
        "explicit": result.explicit,
        "quotient": result.quotient.to_json_dict(),
        "class_representatives": [list(r) for r in result.class_representatives],
    }
    _emit(args, report, [json.dumps(report["quotient"]),
                         f"classes: {report['class_representatives']}"])
    return 0


def _cmd_henkin_eval(args):
    family, U = _family_from_args(args)
    f = _formula_from_args(args)
    ultra.check_henkin_formula(f, family[0], args.arity_bound)
    M = ultra.henkin_model(family, U, args.arity_bound, budget=args.budget)
    value = ultra.henkin_eval(M, f, budget=args.budget)
    report = {"command": "henkin-eval", "ultrafilter": U.literal(),
              "arity_bound": args.arity_bound, "result": value}
    _emit(args, report, ["true" if value else "false"])
    return 0


def _cmd_separate(args):
    named_k = _load_family(args.k)
    named_l = _load_family(args.l)
    sig = named_k[0][1].sig
    for name, A in named_k + named_l:
        if A.sig != sig:
            raise SoLabError(f"signature mismatch between {named_k[0][0]} and {name}")
    fragment = fs.Fragment.from_strings(_read_json(args.fragment), sig)

    def vectors(named):
        # Each witness is named by the first file that holds an equal
        # structure, and each (structure, formula) pair is evaluated once.
        names = {}
        for name, A in named:
            names.setdefault(A, name)
        vs = fs.vector_set(names, fragment, budget=args.budget)
        return vs, sorted(({"bits": v.as_string(), "witness": names[A]}
                           for v, A in vs.witnesses.items()), key=lambda e: e["bits"])

    kvs, kv = vectors(named_k)
    lvs, lv = vectors(named_l)
    separator = fs.separating_combination(kvs, lvs, fragment)
    distance = fs.set_distance(kvs, lvs)
    report = {
        "command": "separate",
        "k_vectors": kv,
        "l_vectors": lv,
        "distance": str(distance),
        "separator": fm.print_formula(separator) if separator else None,
    }
    lines = [f"K vectors: " + ", ".join(f"{e['bits']} ({e['witness']})" for e in kv),
             f"L vectors: " + ", ".join(f"{e['bits']} ({e['witness']})" for e in lv),
             f"distance: {report['distance']}",
             f"separator: {report['separator'] or '(none: vector sets meet)'}"]
    _emit(args, report, lines)
    return 0 if separator is not None else 1


def _cmd_types(args):
    A = _load_structure(args.structure)
    ctx = to.TypeContext.from_json_dict(_read_json(args.context))
    table = to.realized_types(A, ctx, budget=args.budget)
    entries = sorted(
        ({"type": p.as_string(),
          "witness": [sorted(list(t) for t in rel) for rel in witness]}
         for p, witness in table.items()),
        key=lambda e: e["type"],
    )
    report = {"command": "types", "structure": args.structure,
              "context": ctx.to_json_dict(), "realized": entries}
    _emit(args, report,
          [f"{e['type']}  witness {e['witness']}" for e in entries])
    return 0


def _cmd_insep(args):
    Ks = [A for _, A in _load_family(args.k)]
    Ls = [A for _, A in _load_family(args.l)]
    rep = workbench.principal_insep_search(Ks, Ls)
    report = {"command": "insep", **rep.to_json_dict()}
    if rep.witness is None:
        lines = [f"refutation: no witness among {rep.pairs_searched} pairs",
                 rep.note]
    else:
        ki, li, mapping = rep.witness
        lines = [f"witness: K[{ki}] ~ L[{li}] via {list(mapping)}"]
    _emit(args, report, lines)
    return 0


_CHECKS = {
    "los": workbench.los_suite,
    "fubini": workbench.fubini_suite,
    "metric": workbench.metric_suite,
    "omission": workbench.omission_suite,
}


def _cmd_check(args):
    # Without --trials the suite's own default trial count applies.
    trials = () if args.trials is None else (workbench.parse_int("--trials", args.trials, 1),)
    report = _CHECKS[args.what](*trials, seed=args.seed)
    ok = report["pass"]
    lines = [f"{report['check']}: {'pass' if ok else 'FAIL'}"
             + (f" ({len(report['failures'])} failures)" if not ok else "")]
    _emit(args, report, lines)
    return 0 if ok else 1


def _cmd_demo(args):
    params = {}
    for item in args.param or []:
        key, _, value = item.partition("=")
        params[key] = value
    params.setdefault("seed", args.seed)
    if args.trials is not None:
        params.setdefault("trials", args.trials)
    report = workbench.demo(args.name, params)
    lines = []
    for check in report["checks"]:
        status = "pass" if check["pass"] else "FAIL"
        lines.append(f"[{status}] {check['name']}: expected {check['expected']!r},"
                     f" got {check['actual']!r}")
    lines.append(f"demo {report['demo']}: {'pass' if report['pass'] else 'FAIL'}"
                 f" in {report['runtime_ms']} ms")
    _emit(args, report, lines)
    return 0 if report["pass"] else 1


def at_least(low):
    """An argparse type: an integer of at least low."""

    def integer(text):
        if (value := int(text)) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {value}")
        return value

    return integer


def build_parser():
    parser = argparse.ArgumentParser(
        prog="so-lab",
        description="Second-order logic workbench over finite structures.",
    )

    def common(sub, *, seed=False, budget=False):
        """--format everywhere; --seed and --budget where the command reads them."""
        sub.add_argument("--format", choices=("text", "json"), default="text")
        if seed:
            sub.add_argument("--seed", type=int, default=42)
        if budget:
            sub.add_argument(
                "--budget", type=at_least(1), default=st.DEFAULT_RELATION_BUDGET,
                help="cap on each of: the n^d assignments of d nested individual"
                     " quantifiers; the choices of the free relation variables;"
                     " each relation quantifier's candidates times those of the"
                     " relation variables around it; the tuple variables SAT grounds")
        return sub

    def formula_args(sub):
        given = sub.add_mutually_exclusive_group()
        given.add_argument("--formula")
        given.add_argument("--builtin")

    def family_args(sub):
        sub.add_argument("--family", required=True)
        sub.add_argument("--ultrafilter", required=True,
                         help='"principal:i", or "principal:i x principal:j"'
                              " with --cols for a row-major grid")
        sub.add_argument("--cols", type=int, default=None,
                         help="column count when the family is a flattened grid")

    subs = parser.add_subparsers(dest="command", required=True)

    p = common(subs.add_parser("parse", help="parse a formula and report its shape"))
    p.add_argument("--formula", required=True)
    p.set_defaults(func=_cmd_parse)

    p = common(subs.add_parser(
        "classify",
        help="alternation class of the relation-quantifier prefix (Sigma/Pi hierarchy)"))
    p.add_argument("--formula", required=True)
    p.set_defaults(func=_cmd_classify)

    p = common(subs.add_parser(
        "prenex",
        help="pull relation quantifiers to a prefix (arity raising past"
             " individual quantifiers)"))
    p.add_argument("--formula", required=True)
    p.set_defaults(func=_cmd_prenex)

    p = common(subs.add_parser(
        "eval", help="truth in one structure under full or first-order semantics"),
        budget=True)
    p.add_argument("--structure", required=True)
    formula_args(p)
    p.add_argument("--semantics", choices=("full", "fo"), default="full")
    p.set_defaults(func=_cmd_eval)

    p = common(subs.add_parser(
        "ultraproduct", help="quotient of a family by a principal ultrafilter"))
    family_args(p)
    p.set_defaults(func=_cmd_ultraproduct)

    p = common(subs.add_parser(
        "henkin-eval",
        help="truth with relation quantifiers ranging over the decomposable"
             " relations of an ultraproduct (Henkin semantics)"),
        budget=True)
    family_args(p)
    formula_args(p)
    p.add_argument("--arity-bound", type=at_least(0), default=2)
    p.set_defaults(func=_cmd_henkin_eval)

    p = common(subs.add_parser(
        "check",
        help="seeded verification suites: los (transfer to ultraproducts),"
             " fubini (iterated products), metric (separation vs vector-set"
             " distance), omission (axiomatization by type omission)"), seed=True)
    p.add_argument("what", choices=tuple(_CHECKS))
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(func=_cmd_check)

    p = common(subs.add_parser(
        "separate",
        help="search for a Boolean combination over a fragment separating"
             " two structure classes"), budget=True)
    p.add_argument("--k", required=True, help="directory or JSON array of structures")
    p.add_argument("--l", required=True)
    p.add_argument("--fragment", required=True, help="JSON array of formula strings")
    p.set_defaults(func=_cmd_separate)

    p = common(subs.add_parser(
        "types", help="realized complete types of a structure in a type context"),
        budget=True)
    p.add_argument("--structure", required=True)
    p.add_argument("--context", required=True, help="JSON type-context file")
    p.set_defaults(func=_cmd_types)

    p = common(subs.add_parser(
        "insep",
        help="principal-scale inseparability: exhaustive isomorphism search"
             " between two families"))
    p.add_argument("--k", required=True)
    p.add_argument("--l", required=True)
    p.set_defaults(func=_cmd_insep)

    p = common(subs.add_parser("demo", help="run a named end-to-end scenario"), seed=True)
    p.add_argument("name", choices=tuple(workbench.DEMOS))
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--param", action="append", help="extra key=value parameter")
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except (SoLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
