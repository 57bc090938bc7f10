"""Second-order formulas over purely relational signatures.

Provides the AST, a recursive-descent parser for the concrete syntax,
a printer that round-trips (parse(print(f)) == f), scope validation,
prenex normalisation of relation quantifiers, and classification into
the alternation hierarchy (Delta0 / Sigma(n) / Pi(n)).

All formula values are immutable and safe to share.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError, ValidationError


class Formula:
    __slots__ = ()

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True, slots=True)
class Atom(Formula):
    rel: str
    args: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Eq(Formula):
    left: str
    right: str


@dataclass(frozen=True, slots=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class ExistsFO(Formula):
    var: str
    body: Formula


@dataclass(frozen=True, slots=True)
class ForallFO(Formula):
    var: str
    body: Formula


@dataclass(frozen=True, slots=True)
class ExistsSO(Formula):
    relvar: str
    arity: int
    body: Formula


@dataclass(frozen=True, slots=True)
class ForallSO(Formula):
    relvar: str
    arity: int
    body: Formula


_BINARY = (And, Or, Implies, Iff)
_FO_QUANT = (ExistsFO, ForallFO)
_SO_QUANT = (ExistsSO, ForallSO)

KEYWORDS = frozenset({"ALL", "EX", "ALL2", "EX2"})

# The deepest syntax tree parse accepts.  Every walker over formulas
# recurses once or twice per level, so deeper input would end in a
# RecursionError rather than an answer.
MAX_DEPTH = 100


# ---------------------------------------------------------------------------
# Lexing / parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<nat>\d+)"
    r"|(?P<op><->|->|!=|[()=,:~&|])"
)


def _tokenize(text):
    tokens = []
    pos = 0
    line = 1
    col = 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind != "ws":
            tokens.append((kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok[2], tok[3])

    def expect_op(self, op):
        kind, lexeme, _, _ = self.peek()
        if kind != "op" or lexeme != op:
            self.error(f"expected {op!r}, found {lexeme or 'end of input'!r}")
        return self.take()

    def nested(self, parse):
        """parse() one level deeper, bounding the parser's own recursion."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.error(f"formula is nested more than {MAX_DEPTH} levels deep")
        out = parse()
        self.depth -= 1
        return out

    def at_op(self, op):
        kind, lexeme, _, _ = self.peek()
        return kind == "op" and lexeme == op

    def formula(self):
        kind, lexeme, _, _ = self.peek()
        if kind == "name" and lexeme in KEYWORDS:
            self.take()
            if lexeme in ("ALL", "EX"):
                var = self.variable()
                body = self.nested(self.formula)
                return (ForallFO if lexeme == "ALL" else ExistsFO)(var, body)
            relvar = self.relvar_binder()
            self.expect_op(":")
            arity = self.nat()
            body = self.nested(self.formula)
            return (ForallSO if lexeme == "ALL2" else ExistsSO)(relvar, arity, body)
        return self.iff()

    def variable(self):
        kind, lexeme, line, col = self.take()
        if kind != "name" or lexeme in KEYWORDS or not lexeme[0].islower():
            raise ParseError(f"expected a variable, found {lexeme or 'end of input'!r}", line, col)
        return lexeme

    def relvar_binder(self):
        # The reference convention is an uppercase initial, but binders may
        # deliberately shadow (lowercase) signature symbols.
        kind, lexeme, line, col = self.take()
        if kind != "name" or lexeme in KEYWORDS:
            raise ParseError(
                f"expected a relation variable, found {lexeme or 'end of input'!r}", line, col
            )
        return lexeme

    def nat(self):
        kind, lexeme, line, col = self.take()
        if kind != "nat":
            raise ParseError(f"expected an arity, found {lexeme or 'end of input'!r}", line, col)
        value = int(lexeme)
        if value < 1:
            raise ParseError("arities must be at least 1", line, col)
        return value

    def iff(self):
        out = self.imp()
        while self.at_op("<->"):
            self.take()
            out = Iff(out, self.imp())
        return out

    def imp(self):
        parts = [self.or_()]
        while self.at_op("->"):
            self.take()
            parts.append(self.or_())
        out = parts[-1]
        for part in reversed(parts[:-1]):
            out = Implies(part, out)
        return out

    def or_(self):
        out = self.and_()
        while self.at_op("|"):
            self.take()
            out = Or(out, self.and_())
        return out

    def and_(self):
        out = self.unary()
        while self.at_op("&"):
            self.take()
            out = And(out, self.unary())
        return out

    def unary(self):
        kind, lexeme, _, _ = self.peek()
        if kind == "op" and lexeme == "~":
            self.take()
            return Not(self.nested(self.unary))
        if kind == "op" and lexeme == "(":
            self.take()
            out = self.nested(self.formula)
            self.expect_op(")")
            return out
        return self.atom()

    def atom(self):
        kind, lexeme, line, col = self.peek()
        if kind == "name" and lexeme in KEYWORDS:
            self.error(f"quantifier {lexeme!r} is not allowed here; parenthesize it")
        if kind != "name":
            self.error(f"expected an atom, found {lexeme or 'end of input'!r}")
        name = self.take()[1]
        if self.at_op("("):
            self.take()
            args = [self.variable()]
            while self.at_op(","):
                self.take()
                args.append(self.variable())
            self.expect_op(")")
            return Atom(name, tuple(args))
        if self.at_op("=") or self.at_op("!="):
            if not name[0].islower():
                raise ParseError(f"equality compares variables, found {name!r}", line, col)
            negated = self.take()[1] == "!="
            right = self.variable()
            eq = Eq(name, right)
            return Not(eq) if negated else eq
        self.error(f"expected '(', '=' or '!=' after {name!r}")


def parse(text: str) -> Formula:
    """Parse concrete syntax into a Formula.

    Raises ParseError with line/column on malformed input, when a
    relation name is applied with two different argument counts inside
    the same scope, and when parentheses, negations and quantifiers, or
    the syntax tree, nest more than MAX_DEPTH levels deep (each operator
    of a chain such as a & b & c adds a level to the tree).
    """
    parser = _Parser(text)
    out = parser.formula()
    kind, lexeme, line, col = parser.peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {lexeme!r}", line, col)
    # Every node of the tree consumes a token, so short input needs no walk.
    if len(parser.tokens) > MAX_DEPTH and _height(out) > MAX_DEPTH:
        raise ParseError(f"formula is nested more than {MAX_DEPTH} levels deep")
    _check_arity_consistency(out)
    return out


def _height(f):
    """Levels of the syntax tree of f, counted without recursion."""
    height = 0
    stack = [(f, 1)]
    while stack:
        g, level = stack.pop()
        height = max(height, level)
        if isinstance(g, Not):
            stack.append((g.sub, level + 1))
        elif isinstance(g, _BINARY):
            stack += ((g.left, level + 1), (g.right, level + 1))
        elif isinstance(g, (*_FO_QUANT, *_SO_QUANT)):
            stack.append((g.body, level + 1))
    return height


def _check_arity_consistency(f):
    free_use: dict[str, int] = {}

    def walk(g, bound):
        if isinstance(g, Atom):
            k = len(g.args)
            if g.rel in bound:
                if bound[g.rel] != k:
                    raise ParseError(
                        f"relation variable {g.rel!r} declared with arity {bound[g.rel]}"
                        f" but applied to {k} arguments"
                    )
            elif g.rel in free_use:
                if free_use[g.rel] != k:
                    raise ParseError(
                        f"symbol {g.rel!r} applied with both {free_use[g.rel]} and {k} arguments"
                    )
            else:
                free_use[g.rel] = k
        elif isinstance(g, Eq):
            pass
        elif isinstance(g, Not):
            walk(g.sub, bound)
        elif isinstance(g, _BINARY):
            walk(g.left, bound)
            walk(g.right, bound)
        elif isinstance(g, _FO_QUANT):
            walk(g.body, bound)
        elif isinstance(g, _SO_QUANT):
            walk(g.body, {**bound, g.relvar: g.arity})
        else:  # pragma: no cover
            raise TypeError(f"not a formula node: {g!r}")

    walk(f, {})


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_LEVEL_QUANT = 0
_LEVEL_IFF = 1
_LEVEL_IMP = 2
_LEVEL_OR = 3
_LEVEL_AND = 4
_LEVEL_UNARY = 5
_LEVEL_ATOM = 6


def _level(f):
    if isinstance(f, (Atom, Eq)):
        return _LEVEL_ATOM
    if isinstance(f, Not):
        return _LEVEL_ATOM if isinstance(f.sub, Eq) else _LEVEL_UNARY
    if isinstance(f, And):
        return _LEVEL_AND
    if isinstance(f, Or):
        return _LEVEL_OR
    if isinstance(f, Implies):
        return _LEVEL_IMP
    if isinstance(f, Iff):
        return _LEVEL_IFF
    return _LEVEL_QUANT


def print_formula(f: Formula) -> str:
    """Concrete syntax for f; parse(print_formula(f)) == f."""
    return _print(f, _LEVEL_QUANT)


def _print(f, min_level):
    if _level(f) < min_level:
        return "(" + _print(f, _LEVEL_QUANT) + ")"
    if isinstance(f, Atom):
        return f"{f.rel}({', '.join(f.args)})" if f.args else f.rel
    if isinstance(f, Eq):
        return f"{f.left} = {f.right}"
    if isinstance(f, Not):
        if isinstance(f.sub, Eq):
            return f"{f.sub.left} != {f.sub.right}"
        return "~" + _print(f.sub, _LEVEL_UNARY)
    if isinstance(f, And):
        return _print(f.left, _LEVEL_AND) + " & " + _print(f.right, _LEVEL_UNARY)
    if isinstance(f, Or):
        return _print(f.left, _LEVEL_OR) + " | " + _print(f.right, _LEVEL_AND)
    if isinstance(f, Implies):
        return _print(f.left, _LEVEL_OR) + " -> " + _print(f.right, _LEVEL_IMP)
    if isinstance(f, Iff):
        return _print(f.left, _LEVEL_IFF) + " <-> " + _print(f.right, _LEVEL_IMP)
    if isinstance(f, ExistsFO):
        return f"EX {f.var} " + _print(f.body, _LEVEL_QUANT)
    if isinstance(f, ForallFO):
        return f"ALL {f.var} " + _print(f.body, _LEVEL_QUANT)
    if isinstance(f, ExistsSO):
        return f"EX2 {f.relvar}:{f.arity} " + _print(f.body, _LEVEL_QUANT)
    if isinstance(f, ForallSO):
        return f"ALL2 {f.relvar}:{f.arity} " + _print(f.body, _LEVEL_QUANT)
    raise TypeError(f"not a formula node: {f!r}")


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------

def subformulas(f):
    yield f
    if isinstance(f, Not):
        yield from subformulas(f.sub)
    elif isinstance(f, _BINARY):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    elif isinstance(f, (*_FO_QUANT, *_SO_QUANT)):
        yield from subformulas(f.body)


def contains_so(f) -> bool:
    return any(isinstance(g, _SO_QUANT) for g in subformulas(f))


def so_quantifier_arities(f) -> tuple[int, ...]:
    return tuple(g.arity for g in subformulas(f) if isinstance(g, _SO_QUANT))


def so_prefix(f):
    """Split f into its leading relation-quantifier prefix and matrix.

    Returns (prefix, matrix) where prefix is a tuple of
    (existential: bool, name, arity) triples.
    """
    prefix = []
    while isinstance(f, _SO_QUANT):
        prefix.append((isinstance(f, ExistsSO), f.relvar, f.arity))
        f = f.body
    return tuple(prefix), f


def free_fo_variables(f) -> tuple[str, ...]:
    """Free first-order variables in first-occurrence order."""
    out = []
    seen = set()

    def walk(g, bound):
        if isinstance(g, Atom):
            for a in g.args:
                if a not in bound and a not in seen:
                    seen.add(a)
                    out.append(a)
        elif isinstance(g, Eq):
            for a in (g.left, g.right):
                if a not in bound and a not in seen:
                    seen.add(a)
                    out.append(a)
        elif isinstance(g, Not):
            walk(g.sub, bound)
        elif isinstance(g, _BINARY):
            walk(g.left, bound)
            walk(g.right, bound)
        elif isinstance(g, _FO_QUANT):
            walk(g.body, bound | {g.var})
        elif isinstance(g, _SO_QUANT):
            walk(g.body, bound)

    walk(f, frozenset())
    return tuple(out)


def free_relation_variables(f, sig) -> tuple[tuple[str, int], ...]:
    """Atom names that resolve neither to a binder nor to the signature.

    Returned in first-occurrence order with the arity of their use; a
    name used with two arities raises ValidationError.
    """
    out = []
    arities = {}

    def walk(g, bound):
        if isinstance(g, Atom):
            if g.rel in bound or sig.arity(g.rel) is not None:
                return
            k = len(g.args)
            if g.rel in arities:
                if arities[g.rel] != k:
                    raise ValidationError(
                        f"free relation variable {g.rel!r} used with arities"
                        f" {arities[g.rel]} and {k}"
                    )
            else:
                arities[g.rel] = k
                out.append((g.rel, k))
        elif isinstance(g, Not):
            walk(g.sub, bound)
        elif isinstance(g, _BINARY):
            walk(g.left, bound)
            walk(g.right, bound)
        elif isinstance(g, _FO_QUANT):
            walk(g.body, bound)
        elif isinstance(g, _SO_QUANT):
            walk(g.body, bound | {g.relvar})

    walk(f, frozenset())
    return tuple(out)


def all_names(f) -> set[str]:
    names = set()
    for g in subformulas(f):
        if isinstance(g, Atom):
            names.add(g.rel)
            names.update(g.args)
        elif isinstance(g, Eq):
            names.add(g.left)
            names.add(g.right)
        elif isinstance(g, _FO_QUANT):
            names.add(g.var)
        elif isinstance(g, _SO_QUANT):
            names.add(g.relvar)
    return names


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    errors: tuple[str, ...]
    free_variables: tuple[str, ...]
    free_relation_variables: tuple[tuple[str, int], ...]
    shadowed: tuple[str, ...]

    def raise_on_error(self):
        if not self.ok:
            raise ValidationError("; ".join(self.errors))
        return self


def validate(f: Formula, sig, allow_free_relvars: bool = False) -> ValidationReport:
    """Resolve every atom against binders (which shadow the signature) and
    the signature; report free first-order variables rather than rejecting
    them.

    With allow_free_relvars, atom names outside the signature are reported
    as free relation variables instead of unknown symbols (used for
    fragments whose designated relation variables stay free).
    """
    errors = []
    shadowed = []
    free_vars = []
    free_rel = []
    free_rel_arity = {}
    seen_free = set()

    def see_var(name, bound):
        if name not in bound and name not in seen_free:
            seen_free.add(name)
            free_vars.append(name)

    def walk(g, fo_bound, so_bound):
        if isinstance(g, Atom):
            k = len(g.args)
            if g.rel in so_bound:
                if so_bound[g.rel] != k:
                    errors.append(
                        f"arity mismatch: {g.rel!r} bound with arity {so_bound[g.rel]},"
                        f" applied to {k} arguments"
                    )
            else:
                declared = sig.arity(g.rel)
                if declared is None:
                    if allow_free_relvars:
                        prev = free_rel_arity.get(g.rel)
                        if prev is None:
                            free_rel_arity[g.rel] = k
                            free_rel.append((g.rel, k))
                        elif prev != k:
                            errors.append(
                                f"arity mismatch: free relation variable {g.rel!r}"
                                f" used with arities {prev} and {k}"
                            )
                    else:
                        errors.append(f"unknown symbol {g.rel!r}")
                elif declared != k:
                    errors.append(
                        f"arity mismatch: {g.rel!r} has arity {declared},"
                        f" applied to {k} arguments"
                    )
            for a in g.args:
                see_var(a, fo_bound)
        elif isinstance(g, Eq):
            see_var(g.left, fo_bound)
            see_var(g.right, fo_bound)
        elif isinstance(g, Not):
            walk(g.sub, fo_bound, so_bound)
        elif isinstance(g, _BINARY):
            walk(g.left, fo_bound, so_bound)
            walk(g.right, fo_bound, so_bound)
        elif isinstance(g, _FO_QUANT):
            walk(g.body, fo_bound | {g.var}, so_bound)
        elif isinstance(g, _SO_QUANT):
            if sig.arity(g.relvar) is not None or g.relvar in so_bound:
                shadowed.append(g.relvar)
            if g.arity < 1:
                errors.append(f"binder {g.relvar!r} declares arity {g.arity} < 1")
            walk(g.body, fo_bound, {**so_bound, g.relvar: g.arity})
        else:
            errors.append(f"not a formula node: {g!r}")

    walk(f, frozenset(), {})
    return ValidationReport(
        ok=not errors,
        errors=tuple(errors),
        free_variables=tuple(free_vars),
        free_relation_variables=tuple(free_rel),
        shadowed=tuple(shadowed),
    )


def validate_closed(f, sig, allow_free_relvars=False):
    report = validate(f, sig, allow_free_relvars=allow_free_relvars).raise_on_error()
    if report.free_variables:
        raise ValidationError(
            f"formula has free first-order variables: {', '.join(report.free_variables)}"
        )
    return report


# ---------------------------------------------------------------------------
# Hierarchy classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HierarchyLabel:
    kind: str  # "Delta0" | "Sigma" | "Pi" | "NonPrenex"
    n: int | None = None

    def __str__(self):
        if self.kind in ("Sigma", "Pi"):
            return f"{self.kind}({self.n})"
        return self.kind


DELTA0 = HierarchyLabel("Delta0")
NONPRENEX = HierarchyLabel("NonPrenex")


def classify(f: Formula) -> HierarchyLabel:
    """Alternation class of the leading relation-quantifier prefix.

    Delta0 when no relation quantifier occurs at all; Sigma(n)/Pi(n) when
    all relation quantifiers form a prefix of n maximal homogeneous blocks;
    NonPrenex otherwise (Boolean combinations included).
    """
    prefix, matrix = so_prefix(f)
    if contains_so(matrix):
        return NONPRENEX
    if not prefix:
        return DELTA0
    blocks = 1
    for (kind, _, _), (prev, _, _) in zip(prefix[1:], prefix):
        if kind != prev:
            blocks += 1
    return HierarchyLabel("Sigma" if prefix[0][0] else "Pi", blocks)


# ---------------------------------------------------------------------------
# Universal closure and prenex normalisation
# ---------------------------------------------------------------------------

def universal_closure(f: Formula) -> Formula:
    """Bind the free first-order variables by a ForallFO prefix in
    first-occurrence order."""
    out = f
    for var in reversed(free_fo_variables(f)):
        out = ForallFO(var, out)
    return out


class _Fresh:
    def __init__(self, used):
        self.used = set(used)
        self.fo = 0
        self.so = 0

    def fo_var(self):
        while True:
            name = f"v{self.fo}"
            self.fo += 1
            if name not in self.used:
                self.used.add(name)
                return name

    def so_var(self):
        while True:
            name = f"V{self.so}"
            self.so += 1
            if name not in self.used:
                self.used.add(name)
                return name


def _eliminate_impl_iff(f):
    if isinstance(f, (Atom, Eq)):
        return f
    if isinstance(f, Not):
        return Not(_eliminate_impl_iff(f.sub))
    if isinstance(f, Implies):
        return Or(Not(_eliminate_impl_iff(f.left)), _eliminate_impl_iff(f.right))
    if isinstance(f, Iff):
        left = _eliminate_impl_iff(f.left)
        right = _eliminate_impl_iff(f.right)
        return And(Or(Not(left), right), Or(Not(right), left))
    if isinstance(f, (And, Or)):
        return type(f)(_eliminate_impl_iff(f.left), _eliminate_impl_iff(f.right))
    if isinstance(f, _FO_QUANT):
        return type(f)(f.var, _eliminate_impl_iff(f.body))
    return type(f)(f.relvar, f.arity, _eliminate_impl_iff(f.body))


def _standardize_apart(f, fresh):
    def walk(g, fo_map, so_map):
        if isinstance(g, Atom):
            return Atom(so_map.get(g.rel, g.rel), tuple(fo_map.get(a, a) for a in g.args))
        if isinstance(g, Eq):
            return Eq(fo_map.get(g.left, g.left), fo_map.get(g.right, g.right))
        if isinstance(g, Not):
            return Not(walk(g.sub, fo_map, so_map))
        if isinstance(g, (And, Or)):
            return type(g)(walk(g.left, fo_map, so_map), walk(g.right, fo_map, so_map))
        if isinstance(g, _FO_QUANT):
            name = fresh.fo_var()
            return type(g)(name, walk(g.body, {**fo_map, g.var: name}, so_map))
        if isinstance(g, _SO_QUANT):
            name = fresh.so_var()
            return type(g)(name, g.arity, walk(g.body, fo_map, {**so_map, g.relvar: name}))
        raise TypeError(f"not a formula node: {g!r}")

    return walk(f, {}, {})


def _nnf(f, neg=False):
    if isinstance(f, (Atom, Eq)):
        return Not(f) if neg else f
    if isinstance(f, Not):
        return _nnf(f.sub, not neg)
    if isinstance(f, And):
        node = Or if neg else And
        return node(_nnf(f.left, neg), _nnf(f.right, neg))
    if isinstance(f, Or):
        node = And if neg else Or
        return node(_nnf(f.left, neg), _nnf(f.right, neg))
    if isinstance(f, ExistsFO):
        node = ForallFO if neg else ExistsFO
        return node(f.var, _nnf(f.body, neg))
    if isinstance(f, ForallFO):
        node = ExistsFO if neg else ForallFO
        return node(f.var, _nnf(f.body, neg))
    if isinstance(f, ExistsSO):
        node = ForallSO if neg else ExistsSO
        return node(f.relvar, f.arity, _nnf(f.body, neg))
    if isinstance(f, ForallSO):
        node = ExistsSO if neg else ForallSO
        return node(f.relvar, f.arity, _nnf(f.body, neg))
    raise TypeError(f"not a formula node after elimination: {f!r}")


def _prepend_arg(g, names, var):
    if isinstance(g, Atom):
        if g.rel in names:
            return Atom(g.rel, (var, *g.args))
        return g
    if isinstance(g, Eq):
        return g
    if isinstance(g, Not):
        return Not(_prepend_arg(g.sub, names, var))
    if isinstance(g, (And, Or)):
        return type(g)(_prepend_arg(g.left, names, var), _prepend_arg(g.right, names, var))
    if isinstance(g, _FO_QUANT):
        return type(g)(g.var, _prepend_arg(g.body, names, var))
    if isinstance(g, _SO_QUANT):
        return type(g)(g.relvar, g.arity, _prepend_arg(g.body, names, var))
    raise TypeError(f"not a formula node: {g!r}")


def _pull(g):
    """Pull relation quantifiers to the front of an NNF formula.

    Moving a relation quantifier past an individual quantifier of the
    opposite polarity raises its arity by one, absorbing the individual
    variable as a fresh first coordinate:
    ALL x EX2 X:k b  ==  EX2 X:k+1 ALL x b[X(t...) -> X(x, t...)].
    """
    if isinstance(g, (Atom, Eq, Not)):
        return [], g
    if isinstance(g, (And, Or)):
        pl, ml = _pull(g.left)
        pr, mr = _pull(g.right)
        return pl + pr, type(g)(ml, mr)
    if isinstance(g, _FO_QUANT):
        prefix, matrix = _pull(g.body)
        exists_fo = isinstance(g, ExistsFO)
        raised = set()
        new_prefix = []
        for existential, name, arity in prefix:
            if existential != exists_fo:
                raised.add(name)
                new_prefix.append((existential, name, arity + 1))
            else:
                new_prefix.append((existential, name, arity))
        if raised:
            matrix = _prepend_arg(matrix, raised, g.var)
        return new_prefix, type(g)(g.var, matrix)
    if isinstance(g, _SO_QUANT):
        prefix, matrix = _pull(g.body)
        return [(isinstance(g, ExistsSO), g.relvar, g.arity)] + prefix, matrix
    raise TypeError(f"not a formula node: {g!r}")


def prenex_so(f: Formula) -> Formula:
    """An equivalent formula with all relation quantifiers as a prefix.

    Free first-order variables are universally closed first; already
    prenex closed formulas are returned unchanged.
    """
    if not free_fo_variables(f) and classify(f) is not NONPRENEX:
        return f
    g = universal_closure(f)
    g = _eliminate_impl_iff(g)
    g = _standardize_apart(g, _Fresh(all_names(g)))
    g = _nnf(g)
    prefix, matrix = _pull(g)
    out = matrix
    for existential, name, arity in reversed(prefix):
        out = (ExistsSO if existential else ForallSO)(name, arity, out)
    return out


def dualize_prefix(f: Formula) -> Formula:
    """Swap every quantifier in the leading relation-quantifier prefix."""
    prefix, matrix = so_prefix(f)
    out = matrix
    for existential, name, arity in reversed(prefix):
        out = (ForallSO if existential else ExistsSO)(name, arity, out)
    return out
