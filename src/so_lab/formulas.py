"""Second-order formulas over purely relational signatures.

Provides the AST, a recursive-descent parser for the concrete syntax,
a printer that round-trips (parse(print(f)) == f), scope validation,
prenex normalisation of relation quantifiers, and classification into
the alternation hierarchy (Delta0 / Sigma(n) / Pi(n)).

Three helpers carry every traversal: children(f) lists the immediate
subformulas, rebuild(f, kids) puts a node back together around new
children (optionally as its dual), and walk(f) visits every node in
pre-order without recursion, together with the variables bound above
it.  Only the printer, prenex pulling and the evaluators elsewhere
dispatch over node kinds themselves.

All formula values are immutable and safe to share.  Each node caches
its hash on first use, the value the dataclass would compute from its
fields, so that hashing a formula again (as every cache keyed on
formulas does) costs one attribute read.  The cache is not pickled (a
slotted frozen dataclass pickles its fields only), so a loaded node
hashes afresh: string hashes differ between processes.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError, ValidationError


class Formula:
    __slots__ = ("_hash",)

    def __str__(self) -> str:
        return print_formula(self)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = self._structural_hash()
            object.__setattr__(self, "_hash", h)
            return h


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


# The generated dataclass hash stays as _structural_hash, which the
# cached __hash__ calls once per node.
for _node in (Atom, Eq, Not, And, Or, Implies, Iff, ExistsFO, ForallFO, ExistsSO, ForallSO):
    _node._structural_hash = _node.__hash__
    _node.__hash__ = Formula.__hash__
del _node

_BINARY = (And, Or, Implies, Iff)
_FO_QUANT = (ExistsFO, ForallFO)
_SO_QUANT = (ExistsSO, ForallSO)
_LEAVES = (Atom, Eq)

KEYWORDS = frozenset({"ALL", "EX", "ALL2", "EX2"})

# The deepest syntax tree parse accepts.  The rewriting passes and the
# evaluators recurse once or twice per level, so deeper input would end
# in a RecursionError rather than an answer.
MAX_DEPTH = 100


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------

def children(f) -> tuple[Formula, ...]:
    """The immediate subformulas of f, left to right."""
    kind = type(f)
    if kind is Not:
        return (f.sub,)
    if kind in _BINARY:
        return (f.left, f.right)
    if kind in _FO_QUANT or kind in _SO_QUANT:
        return (f.body,)
    return ()


def rebuild(f, kids, node=None):
    """f with its children replaced by kids, in the order of children(f).

    node, when given, is the type to build instead of type(f); it must
    take the same fields, as the dual connective or quantifier does.
    Atoms and equalities have no children and come back unchanged.
    """
    kind = type(f)
    if kind in _LEAVES:
        return f
    node = node or kind
    if kind in _FO_QUANT:
        return node(f.var, *kids)
    if kind in _SO_QUANT:
        return node(f.relvar, f.arity, *kids)
    return node(*kids)


def walk(f):
    """Every node of f in pre-order, left to right, without recursion.

    Yields (node, fo_bound, so_bound): fo_bound is the frozenset of
    individual variables bound above node, and so_bound maps each
    relation variable bound above it to its declared arity.  Both are
    shared between nodes and must not be mutated.
    """
    stack = [(f, frozenset(), {})]
    pop = stack.pop
    push = stack.append
    while stack:
        item = pop()
        yield item
        # Dispatch inline, leaves first, rather than through children():
        # this loop is under every free-variable query of the evaluators.
        g, fo_bound, so_bound = item
        kind = type(g)
        if kind in _LEAVES:
            continue
        if kind is Not:
            push((g.sub, fo_bound, so_bound))
        elif kind in _FO_QUANT:
            push((g.body, fo_bound | {g.var}, so_bound))
        elif kind in _SO_QUANT:
            push((g.body, fo_bound, {**so_bound, g.relvar: g.arity}))
        elif kind in _BINARY:
            push((g.right, fo_bound, so_bound))
            push((g.left, fo_bound, so_bound))


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
        stack += ((h, level + 1) for h in children(g))
    return height


def _check_arity_consistency(f):
    free_use: dict[str, int] = {}
    for g, _, bound in walk(f):
        if not isinstance(g, Atom):
            continue
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

_LEVELS = {Atom: _LEVEL_ATOM, Eq: _LEVEL_ATOM, And: _LEVEL_AND, Or: _LEVEL_OR,
           Implies: _LEVEL_IMP, Iff: _LEVEL_IFF}


def _level(f):
    if isinstance(f, Not):
        return _LEVEL_ATOM if isinstance(f.sub, Eq) else _LEVEL_UNARY
    return _LEVELS.get(type(f), _LEVEL_QUANT)


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
    if isinstance(f, _FO_QUANT):
        keyword = "EX" if isinstance(f, ExistsFO) else "ALL"
        return f"{keyword} {f.var} " + _print(f.body, _LEVEL_QUANT)
    if isinstance(f, _SO_QUANT):
        keyword = "EX2" if isinstance(f, ExistsSO) else "ALL2"
        return f"{keyword} {f.relvar}:{f.arity} " + _print(f.body, _LEVEL_QUANT)
    raise TypeError(f"not a formula node: {f!r}")


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------

def subformulas(f):
    """Every node of f in pre-order, left to right."""
    return (g for g, _, _ in walk(f))


def contains_so(f) -> bool:
    return any(isinstance(g, _SO_QUANT) for g, _, _ in walk(f))


def so_quantifier_arities(f) -> tuple[int, ...]:
    return tuple(g.arity for g, _, _ in walk(f) if isinstance(g, _SO_QUANT))


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
    out = {}
    for g, bound, _ in walk(f):
        if isinstance(g, Atom):
            names = g.args
        elif isinstance(g, Eq):
            names = (g.left, g.right)
        else:
            continue
        for a in names:
            if a not in bound:
                out.setdefault(a)
    return tuple(out)


def free_relation_variables(f, sig) -> tuple[tuple[str, int], ...]:
    """Atom names that resolve neither to a binder nor to the signature.

    Returned in first-occurrence order with the arity of their use; a
    name used with two arities raises ValidationError.
    """
    arities = {}
    for g, _, bound in walk(f):
        if not isinstance(g, Atom) or g.rel in bound or sig.arity(g.rel) is not None:
            continue
        k = len(g.args)
        if arities.setdefault(g.rel, k) != k:
            raise ValidationError(
                f"free relation variable {g.rel!r} used with arities"
                f" {arities[g.rel]} and {k}"
            )
    return tuple(arities.items())


def all_names(f) -> set[str]:
    names = set()
    for g, _, _ in walk(f):
        if isinstance(g, Atom):
            names.add(g.rel)
            names.update(g.args)
        elif isinstance(g, Eq):
            names.update((g.left, g.right))
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
    free_rel = {}
    for g, _, so_bound in walk(f):
        if isinstance(g, Atom):
            k = len(g.args)
            if g.rel in so_bound:
                if so_bound[g.rel] != k:
                    errors.append(
                        f"arity mismatch: {g.rel!r} bound with arity {so_bound[g.rel]},"
                        f" applied to {k} arguments"
                    )
                continue
            declared = sig.arity(g.rel)
            if declared is None:
                if not allow_free_relvars:
                    errors.append(f"unknown symbol {g.rel!r}")
                elif free_rel.setdefault(g.rel, k) != k:
                    errors.append(
                        f"arity mismatch: free relation variable {g.rel!r}"
                        f" used with arities {free_rel[g.rel]} and {k}"
                    )
            elif declared != k:
                errors.append(
                    f"arity mismatch: {g.rel!r} has arity {declared},"
                    f" applied to {k} arguments"
                )
        elif isinstance(g, _SO_QUANT):
            if sig.arity(g.relvar) is not None or g.relvar in so_bound:
                shadowed.append(g.relvar)
            if g.arity < 1:
                errors.append(f"binder {g.relvar!r} declares arity {g.arity} < 1")
        elif not isinstance(g, Formula):
            errors.append(f"not a formula node: {g!r}")
    return ValidationReport(
        ok=not errors,
        errors=tuple(errors),
        free_variables=free_fo_variables(f),
        free_relation_variables=tuple(free_rel.items()),
        shadowed=tuple(shadowed),
    )


def validate_closed(f, sig, allow_free_relvars=False):
    report = validate(f, sig, allow_free_relvars=allow_free_relvars).raise_on_error()
    if report.free_variables:
        raise ValidationError(
            f"formula has free first-order variables: {', '.join(report.free_variables)}"
        )
    return report


def parse_list(strings, what) -> tuple[Formula, ...]:
    """Parse each string of a decoded JSON array; what names the array
    in the ValidationError raised for any other value."""
    if not isinstance(strings, list) or not all(isinstance(s, str) for s in strings):
        raise ValidationError(f"{what} must be a JSON array of formula strings")
    return tuple(parse(s) for s in strings)


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
    blocks = 1 + sum(kind != prev for (kind, _, _), (prev, _, _) in zip(prefix[1:], prefix))
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
    """Unused names v0, v1, ... for individual and V0, V1, ... for
    relation variables."""

    def __init__(self, used):
        self.used = set(used)
        self.next = {"v": 0, "V": 0}

    def name(self, prefix):
        while True:
            name = f"{prefix}{self.next[prefix]}"
            self.next[prefix] += 1
            if name not in self.used:
                self.used.add(name)
                return name


def _eliminate_impl_iff(f):
    kids = [_eliminate_impl_iff(g) for g in children(f)]
    if isinstance(f, Implies):
        return Or(Not(kids[0]), kids[1])
    if isinstance(f, Iff):
        left, right = kids
        return And(Or(Not(left), right), Or(Not(right), left))
    return rebuild(f, kids)


def _standardize_apart(f, fresh):
    """Rename every binder of f apart; fresh names are drawn in pre-order,
    left to right."""
    def rename(g, fo_map, so_map):
        if isinstance(g, Atom):
            return Atom(so_map.get(g.rel, g.rel), tuple(fo_map.get(a, a) for a in g.args))
        if isinstance(g, Eq):
            return Eq(fo_map.get(g.left, g.left), fo_map.get(g.right, g.right))
        if isinstance(g, _FO_QUANT):
            name = fresh.name("v")
            return type(g)(name, rename(g.body, {**fo_map, g.var: name}, so_map))
        if isinstance(g, _SO_QUANT):
            name = fresh.name("V")
            return type(g)(name, g.arity, rename(g.body, fo_map, {**so_map, g.relvar: name}))
        return rebuild(g, [rename(h, fo_map, so_map) for h in children(g)])

    return rename(f, {}, {})


# The node each connective and quantifier becomes under a negation.
_DUAL = {And: Or, Or: And, ExistsFO: ForallFO, ForallFO: ExistsFO,
         ExistsSO: ForallSO, ForallSO: ExistsSO}


def _nnf(f, neg=False):
    if isinstance(f, (Atom, Eq)):
        return Not(f) if neg else f
    if isinstance(f, Not):
        return _nnf(f.sub, not neg)
    if type(f) not in _DUAL:
        raise TypeError(f"not a formula node after elimination: {f!r}")
    kids = [_nnf(g, neg) for g in children(f)]
    return rebuild(f, kids, _DUAL[type(f)] if neg else None)


def _prepend_arg(g, names, var):
    if isinstance(g, Atom):
        if g.rel in names:
            return Atom(g.rel, (var, *g.args))
        return g
    return rebuild(g, [_prepend_arg(h, names, var) for h in children(g)])


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
        raised = {name for existential, name, _ in prefix if existential != exists_fo}
        new_prefix = [(existential, name, arity + 1 if name in raised else arity)
                      for existential, name, arity in prefix]
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
