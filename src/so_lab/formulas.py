"""Second-order formulas over purely relational signatures.

Provides the AST, a parser for the concrete syntax, a printer that
round-trips (parse(print(f)) == f), prenex normalisation of relation
quantifiers, and classification into the alternation hierarchy
(Delta0 / Sigma(n) / Pi(n)).

One pass, scope(f), finds what parsing and evaluation need to know of
a formula: free individual variables, the relation symbols no binder
covers with their arities, relation-quantifier arities, nesting depth
and tree height, and the first fault (of arity, or a node that is not
a formula).  parse and every evaluator read it instead of walking the
formula, the evaluators through structures.check_formula.  walk(f)
yields every node in pre-order without recursion, for all_names.
prenex_so is one recursive rewrite: it renames binders apart, pushes
negation inward and moves each relation quantifier onto the prefix as
it meets it, expanding -> and <-> only around relation quantifiers.

All formula values are immutable and safe to share.  Each node caches
its hash on first use, the value the dataclass would compute from its
fields, so that hashing a formula again (as every cache keyed on
formulas does) costs one attribute read; scope(f) is cached on the node
the same way.  Neither cache is pickled (a slotted frozen dataclass
pickles its fields only), so a loaded node hashes afresh: string hashes
differ between processes.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ParseError, ValidationError


class Formula:
    __slots__ = ("_hash", "_scope")

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

# The quantifier each keyword introduces; the parser and the printer share it.
_QUANTIFIERS = {"ALL": ForallFO, "EX": ExistsFO, "ALL2": ForallSO, "EX2": ExistsSO}
_KEYWORD_OF = {node: keyword for keyword, node in _QUANTIFIERS.items()}
KEYWORDS = frozenset(_QUANTIFIERS)

# The deepest syntax tree parse accepts, and check_height accepts of a
# tree built by hand.  The rewriting passes and the evaluators recurse
# once or twice per level, so deeper input would end in a RecursionError
# rather than an answer.
MAX_DEPTH = 100


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------

def walk(f):
    """Every node of f in pre-order, left to right, without recursion."""
    stack = [f]
    pop = stack.pop
    push = stack.append
    while stack:
        g = pop()
        yield g
        kind = type(g)
        if kind in _LEAVES:
            continue
        if kind is Not:
            push(g.sub)
        elif kind in _FO_QUANT or kind in _SO_QUANT:
            push(g.body)
        elif kind in _BINARY:
            push(g.right)
            push(g.left)


class Scope(NamedTuple):
    """What scope(f) finds, each in pre-order, first occurrence first.

    free_fo: the free individual variables.  symbols: each relation
    symbol no binder covers, mapped to the arity of its first use.
    clashes: (name, first, k) for each use of such a symbol at an arity
    k other than its first.  so_arities: the arity of each relation
    quantifier.  depth: the deepest nesting of individual quantifiers.
    height: the levels of the syntax tree.  fault: the first fault as a
    message, or None: an arity fault (a clash, an atom whose binder
    declares another arity, a binder arity below 1) or a node that is
    not a formula.
    """
    free_fo: tuple[str, ...]
    symbols: dict
    clashes: tuple[tuple[str, int, int], ...]
    so_arities: tuple[int, ...]
    depth: int
    height: int
    fault: str | None


def scope(f) -> Scope:
    """The Scope of f, from one pass without recursion, cached on f."""
    out = getattr(f, "_scope", None)
    if out is None:
        out = _scope_pass(f)
        if isinstance(f, Formula):
            object.__setattr__(f, "_scope", out)
    return out


def _scope_pass(f):
    free_fo, symbols, clashes, so_arities = {}, {}, [], []
    fault = None
    depth = height = 0
    stack = [(f, frozenset(), {}, 0, 1)]
    while stack:
        g, fo_bound, so_bound, d, level = stack.pop()
        if level > height:
            height = level
        kind = type(g)
        level += 1
        if kind is Atom or kind is Eq:
            for a in g.args if kind is Atom else (g.left, g.right):
                if a not in fo_bound and a not in free_fo:
                    free_fo[a] = None
        if kind is Atom:
            k = len(g.args)
            declared = so_bound.get(g.rel)
            if declared is None:
                first = symbols.setdefault(g.rel, k)
                if first != k:
                    clashes.append((g.rel, first, k))
                    fault = fault or f"symbol {g.rel!r} applied with both {first} and {k} arguments"
            elif declared != k:
                fault = fault or (f"relation variable {g.rel!r} declared with arity {declared}"
                                  f" but applied to {k} arguments")
        elif kind in _BINARY:
            stack.append((g.right, fo_bound, so_bound, d, level))
            stack.append((g.left, fo_bound, so_bound, d, level))
        elif kind is Not:
            stack.append((g.sub, fo_bound, so_bound, d, level))
        elif kind in _FO_QUANT:
            if d >= depth:
                depth = d + 1
            stack.append((g.body, fo_bound | {g.var}, so_bound, d + 1, level))
        elif kind in _SO_QUANT:
            so_arities.append(g.arity)
            if g.arity < 1:
                fault = fault or f"binder {g.relvar!r} declares arity {g.arity} < 1"
            stack.append((g.body, fo_bound, {**so_bound, g.relvar: g.arity}, d, level))
        elif kind is not Eq:
            fault = fault or f"not a formula node: {g!r}"
    return Scope(tuple(free_fo), symbols, tuple(clashes), tuple(so_arities), depth, height,
                 fault)


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


# Each connective's precedence, loosest first, and its node.
_CONNECTIVES = {"<->": (1, Iff), "->": (2, Implies), "|": (3, Or), "&": (4, And)}


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

    def error(self, message):
        raise ParseError(message, *self.peek()[2:])

    def expect_op(self, op):
        kind, lexeme, _, _ = self.peek()
        if kind != "op" or lexeme != op:
            self.error(f"expected {op!r}, found {lexeme or 'end of input'!r}")
        return self.take()

    def enter(self):
        """One level deeper, bounding the nesting of the input."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.error(f"formula is nested more than {MAX_DEPTH} levels deep")

    def at_op(self, op):
        kind, lexeme, _, _ = self.peek()
        return kind == "op" and lexeme == op

    def formula(self):
        """A quantifier prefix over unary operands joined by connectives,
        which one loop applies by precedence: a level of parentheses costs
        two frames, this one and unary's, a quantifier or negation none."""
        binders = []
        kind, lexeme, _, _ = self.peek()
        while kind == "name" and lexeme in KEYWORDS:
            self.take()
            node = _QUANTIFIERS[lexeme]
            if node in _FO_QUANT:
                binders.append((node, (self.variable(),)))
            else:
                # Uppercase by convention; may shadow a (lowercase) signature symbol.
                relvar = self.word("a relation variable")
                self.expect_op(":")
                binders.append((node, (relvar, self.nat())))
            self.enter()
            kind, lexeme, _, _ = self.peek()
        operands = [self.unary()]
        pending = []  # (precedence, node) of each connective not yet applied
        while True:
            op = _CONNECTIVES.get(self.peek()[1])
            # Apply the pending connectives that bind at least as tightly
            # as op, or more tightly when op is the right-grouping ->.
            bar = 0 if op is None else op[0] + (op[1] is Implies)
            while pending and pending[-1][0] >= bar:
                right = operands.pop()
                operands[-1] = pending.pop()[1](operands[-1], right)
            if op is None:
                break
            self.take()
            pending.append(op)
            operands.append(self.unary())
        out = operands[0]
        for node, fields in reversed(binders):
            out = node(*fields, out)
        self.depth -= len(binders)
        return out

    def word(self, what, kind="name", lower=False):
        """The next lexeme; it must be of kind, no keyword, and start in lower case if lower."""
        token, lexeme, line, col = self.take()
        if token != kind or lexeme in KEYWORDS or lower and not lexeme[0].islower():
            raise ParseError(f"expected {what}, found {lexeme or 'end of input'!r}", line, col)
        return lexeme

    def variable(self):
        return self.word("a variable", lower=True)

    def nat(self):
        line, col = self.peek()[2:]
        value = int(self.word("an arity", "nat"))
        if value < 1:
            raise ParseError("arities must be at least 1", line, col)
        return value

    def unary(self):
        negations = 0
        while self.at_op("~"):
            self.take()
            self.enter()
            negations += 1
        if self.at_op("("):
            self.take()
            self.enter()
            out = self.formula()
            self.expect_op(")")
            self.depth -= 1
        else:
            out = self.atom()
        for _ in range(negations):
            out = Not(out)
        self.depth -= negations
        return out

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

    Raises ParseError with line/column on malformed input, when
    parentheses, negations and quantifiers, or the syntax tree, nest
    more than MAX_DEPTH levels deep (each operator of a chain such as
    a & b & c adds a level to the tree), and on the arity fault, if
    any, that scope(f) finds.
    """
    parser = _Parser(text)
    out = parser.formula()
    kind, lexeme, line, col = parser.peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {lexeme!r}", line, col)
    found = scope(out)
    if found.height > MAX_DEPTH:
        raise ParseError(f"formula is nested more than {MAX_DEPTH} levels deep")
    if found.fault:
        raise ParseError(found.fault)
    return out


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

# Precedence levels around those of the connectives in _CONNECTIVES.
_LEVEL_QUANT = 0
_LEVEL_UNARY = 5
_LEVEL_ATOM = 6
_SYMBOLS = {node: (op, level) for op, (level, node) in _CONNECTIVES.items()}


def _level(f):
    if isinstance(f, Not):
        return _LEVEL_ATOM if isinstance(f.sub, Eq) else _LEVEL_UNARY
    if isinstance(f, _LEAVES):
        return _LEVEL_ATOM
    return _SYMBOLS.get(type(f), (None, _LEVEL_QUANT))[1]


def print_formula(f: Formula) -> str:
    """Concrete syntax for f; parse(print_formula(f)) == f."""
    check_height(f)
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
    if type(f) in _SYMBOLS:
        op, level = _SYMBOLS[type(f)]
        # -> groups to the right, the other connectives to the left.
        left, right = (level + 1, level) if isinstance(f, Implies) else (level, level + 1)
        return _print(f.left, left) + f" {op} " + _print(f.right, right)
    if isinstance(f, _FO_QUANT):
        return f"{_KEYWORD_OF[type(f)]} {f.var} " + _print(f.body, _LEVEL_QUANT)
    if isinstance(f, _SO_QUANT):
        return f"{_KEYWORD_OF[type(f)]} {f.relvar}:{f.arity} " + _print(f.body, _LEVEL_QUANT)
    raise TypeError(f"not a formula node: {f!r}")


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------

def check_height(f):
    """Raise ValidationError, in parse's wording, when f nests deeper
    than MAX_DEPTH.  A tree built through the library rather than parse
    meets the same bound: the evaluators, prenex_so, print_formula,
    Fragment and TypeContext call this before they hash f or recurse
    over it."""
    if scope(f).height > MAX_DEPTH:
        raise ValidationError(f"formula is nested more than {MAX_DEPTH} levels deep")


def balanced(node, parts):
    """parts joined by node (And or Or), in order, as a tree of
    logarithmic height, so that a long conjunction or disjunction stays
    within MAX_DEPTH."""
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return node(balanced(node, parts[:mid]), balanced(node, parts[mid:]))


def contains_so(f) -> bool:
    return bool(scope(f).so_arities)


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


def free_relation_variables(f, sig) -> tuple[tuple[str, int], ...]:
    """Atom names that resolve neither to a binder nor to the signature.

    Returned in first-occurrence order with the arity of their use; a
    name used with two arities raises ValidationError.
    """
    found = scope(f)
    for name, first, k in found.clashes:
        if sig.arity(name) is None:
            raise ValidationError(
                f"free relation variable {name!r} used with arities {first} and {k}")
    return tuple((name, k) for name, k in found.symbols.items() if sig.arity(name) is None)


def all_names(f) -> set[str]:
    names = set()
    for g in walk(f):
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
    for var in reversed(scope(f).free_fo):
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


def _prefix_length(g):
    """The number of relation quantifiers in the prefix prenex_so builds
    from g: a <-> with one below is expanded, which doubles its sides."""
    kind = type(g)
    if kind in _LEAVES:
        return 0
    if kind is Not:
        return _prefix_length(g.sub)
    if kind in _FO_QUANT or kind in _SO_QUANT:
        return (kind in _SO_QUANT) + _prefix_length(g.body)
    count = _prefix_length(g.left) + _prefix_length(g.right)
    return 2 * count if kind is Iff else count


def prenex_so(f: Formula) -> Formula:
    """An equivalent formula with all relation quantifiers as a prefix.

    Free first-order variables are universally closed first; already
    prenex closed formulas are returned unchanged.  Otherwise one pass
    renames every binder apart in pre-order (v0, v1, ... and V0, V1, ...,
    skipping names in use), pushes negation through &, |, quantifiers
    and the -> and <-> that have a relation quantifier below them, which
    it expands as ~l | r and (~l | r) & (~r | l), and keeps every other
    -> and <-> as written, negation outside.  Each relation quantifier
    goes straight onto the prefix.  Moving it past an individual
    quantifier of the opposite polarity raises its arity by one,
    absorbing the individual variable as a leading argument:
    ALL x EX2 X:k b  ==  EX2 X:k+1 ALL x b[X(t...) -> X(x, t...)].

    Raises ValidationError when f nests deeper than MAX_DEPTH, when the
    prefix would hold more than MAX_DEPTH relation quantifiers, counted
    before anything is built, or when the result nests deeper than
    MAX_DEPTH, so that
    parse(print_formula(g)) == g whenever it answers.
    """
    check_height(f)
    if not scope(f).free_fo and classify(f) is not NONPRENEX:
        return f
    g = universal_closure(f)
    count = _prefix_length(g)
    if count > MAX_DEPTH:
        raise ValidationError(
            f"the prenex form would have {count} relation quantifiers,"
            f" more than {MAX_DEPTH}")
    fresh = _Fresh(all_names(g))
    prefix = []

    def rewrite(g, pos, fo, so, above):
        # pos: no negation pending.  fo renames individual variables; so
        # maps a relation variable to its new name and leading arguments;
        # above holds (new name, existential) of the individual
        # quantifiers around g, outermost first, as they come out.
        kind = type(g)
        if kind is Not:
            return rewrite(g.sub, not pos, fo, so, above)
        if kind in _FO_QUANT:
            var = fresh.name("v")
            existential = (kind is ExistsFO) == pos
            body = rewrite(g.body, pos, {**fo, g.var: var}, so, above + ((var, existential),))
            return (ExistsFO if existential else ForallFO)(var, body)
        if kind in _SO_QUANT:
            name = fresh.name("V")
            existential = (kind is ExistsSO) == pos
            lead = tuple(var for var, e in above if e != existential)
            prefix.append((existential, name, g.arity + len(lead)))
            return rewrite(g.body, pos, fo, {**so, g.relvar: (name, lead)}, above)
        if kind is And or kind is Or:
            node = kind if pos else (Or if kind is And else And)
            return node(rewrite(g.left, pos, fo, so, above),
                        rewrite(g.right, pos, fo, so, above))
        if kind is Atom:
            name, lead = so.get(g.rel, (g.rel, ()))
            g = Atom(name, lead + tuple(fo.get(a, a) for a in g.args))
        elif kind is Eq:
            g = Eq(fo.get(g.left, g.left), fo.get(g.right, g.right))
        elif not contains_so(g):
            g = kind(rewrite(g.left, True, fo, so, above), rewrite(g.right, True, fo, so, above))
        else:
            # ~l | r, and (~l | r) & (~r | l), with the negation pushed in.
            inner, outer = (Or, And) if pos else (And, Or)
            first = inner(rewrite(g.left, not pos, fo, so, above),
                          rewrite(g.right, pos, fo, so, above))
            if kind is Implies:
                return first
            return outer(first, inner(rewrite(g.right, not pos, fo, so, above),
                                      rewrite(g.left, pos, fo, so, above)))
        return g if pos else Not(g)

    out = rewrite(g, True, {}, {}, ())
    for existential, name, arity in reversed(prefix):
        out = (ExistsSO if existential else ForallSO)(name, arity, out)
    if scope(out).height > MAX_DEPTH:
        raise ValidationError(f"the prenex form would nest more than {MAX_DEPTH} levels deep")
    return out

