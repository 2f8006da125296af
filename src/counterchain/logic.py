"""Fact/expression/rule language: parsing, printing, three-valued states.

Atoms are written ``[F<n>]``; connectives are ``and``, ``or``, ``xor`` and the
rule arrow ``->``. Negation is not a connective: negative information lives in
False-valued assignments. A partial state reads an unassigned fact as Unknown.

A rule is flat: one of seven templates plus its slot facts (A, B[, C]).
``TEMPLATES`` gives each template's slot count and canonical text. The
expression tree exists only at the parse boundary: ``parse_rule`` parses the
text into a tree and ``make_rule`` maps the tree to its ``Rule``.

``parse_rule`` and ``parse_literal`` are pure functions of their text that
return frozen values, so each is memoized under a bounded LRU cache
(``PARSE_CACHE_SIZE`` entries): a corpus repeats a record's rule texts in both
of its chains and the same literals in every record. Errors are not cached.
"""

from __future__ import annotations

import enum
import functools
import operator
import re
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Union


class ExprSyntaxError(ValueError):
    """Raised on malformed expression or rule text; carries a 0-based byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class RuleShapeError(ValueError):
    """Raised when rule text parses but fits none of the supported templates."""


class TruthValue(enum.Enum):
    FALSE = 0
    UNKNOWN = 1
    TRUE = 2

    @classmethod
    def of(cls, b: bool) -> "TruthValue":
        return cls.TRUE if b else cls.FALSE

    def __bool__(self) -> bool:
        if self is TruthValue.UNKNOWN:
            raise ValueError("Unknown has no boolean value")
        return self is TruthValue.TRUE


class FactId(int):
    """A fact by its index, printed ``[F3]``. An ``int``, so hashing,
    equality and order run in C; the order is the index order."""

    __slots__ = ()

    def __new__(cls, index: int) -> "FactId":
        index = operator.index(index)
        if index < 0:
            raise ValueError("fact index must be non-negative")
        return super().__new__(cls, index)

    @property
    def index(self) -> int:
        return int(self)

    def __str__(self) -> str:
        return f"[F{int(self)}]"

    def __repr__(self) -> str:
        return f"FactId(index={int(self)})"


class Literal(NamedTuple):
    """A fact with a definite polarity; Unknown is never a literal value.
    A ``(fact, value)`` tuple, so hashing, equality and field access run in C."""

    fact: FactId
    value: bool

    def negated(self) -> "Literal":
        return Literal(self.fact, not self.value)

    def __str__(self) -> str:
        return f"{self.fact}={self.value}"


_LITERAL_RE = re.compile(r"^\[F(\d+)\]=(True|False)$")

# Entries per parse cache: room for every distinct text of a corpus of a few
# thousand default-config records (a 400-record corpus has about 1.4k rule
# texts), and at about 0.4 kB an entry, at most a few MB on any input.
PARSE_CACHE_SIZE = 8192


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_literal(text: str) -> Literal:
    m = _LITERAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"malformed literal: {text!r}")
    return Literal(FactId(int(m.group(1))), m.group(2) == "True")


@dataclass(frozen=True)
class Atom:
    fact: FactId


@dataclass(frozen=True)
class And:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Or:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Xor:
    left: "Expr"
    right: "Expr"


Expr = Union[Atom, And, Or, Xor]


class RuleTemplate(enum.Enum):
    IMPL = "impl"            # A -> B
    AND_ANTE = "and_ante"    # (A and B) -> C
    AND_CONS = "and_cons"    # A -> (B and C)
    OR_ANTE = "or_ante"      # (A or B) -> C
    OR_CONS = "or_cons"      # A -> (B or C)
    XOR_ANTE = "xor_ante"    # (A xor B) -> C
    XOR_BARE = "xor_bare"    # A xor B

    # members are singletons, so identity is equality: hash in C, not by name
    __hash__ = object.__hash__


@dataclass(frozen=True)
class Implication:
    antecedent: Expr
    consequent: Expr


@dataclass(frozen=True)
class XorConstraint:
    left: FactId
    right: FactId


# Per template: the slot count and the canonical text, in which {0}, {1}, {2}
# stand for the slot facts (A, B[, C]).
TEMPLATES: dict[RuleTemplate, tuple[int, str]] = {
    RuleTemplate.IMPL: (2, "{0} -> {1}"),
    RuleTemplate.AND_ANTE: (3, "({0} and {1}) -> {2}"),
    RuleTemplate.AND_CONS: (3, "{0} -> ({1} and {2})"),
    RuleTemplate.OR_ANTE: (3, "({0} or {1}) -> {2}"),
    RuleTemplate.OR_CONS: (3, "{0} -> ({1} or {2})"),
    RuleTemplate.XOR_ANTE: (3, "({0} xor {1}) -> {2}"),
    RuleTemplate.XOR_BARE: (2, "{0} xor {1}"),
}


@dataclass(frozen=True)
class Rule:
    """A template with its slot facts, one distinct fact per slot."""

    template: RuleTemplate
    slots: tuple[FactId, ...]

    def __init__(self, template: RuleTemplate, slots: tuple[FactId, ...]):
        arity = TEMPLATES[template][0]
        if len(slots) != arity:
            raise RuleShapeError(f"{template.value} takes {arity} slots, got {len(slots)}")
        # two or three slots: pairwise comparisons, no set per rule
        if slots[0] == slots[1] or arity == 3 and slots[2] in (slots[0], slots[1]):
            raise RuleShapeError("rule binds the same fact to multiple slots")
        # the generated ``__init__`` of a frozen dataclass sets each field
        # through ``object.__setattr__``, several times slower than filling
        # the instance dict; equality, hashing and ``replace`` are unchanged
        self.__dict__.update(template=template, slots=slots)

    def facts(self) -> tuple[FactId, ...]:
        """Template slot facts in slot order (A, B[, C])."""
        return self.slots

    @property
    def shape(self) -> Union[Implication, XorConstraint]:
        """The expression tree of the canonical text."""
        return _parse_shape(render_rule(self))

    def __str__(self) -> str:
        return render_rule(self)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<atom>\[\[F\d+\]\]|\[F\d+\])|(?P<op>and|or|xor|->)|"
    r"(?P<lpar>\()|(?P<rpar>\)))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.start() != pos:
            raise ExprSyntaxError(f"unknown token {text[pos:pos + 8]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive descent; precedence: parens > xor > and > or, left-associative."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _offset(self) -> int:
        tok = self.peek()
        return tok[2] if tok is not None else len(self.text)

    def expect_end(self) -> None:
        if self.peek() is not None:
            raise ExprSyntaxError(f"unexpected token {self.peek()[1]!r}", self._offset())

    def parse_expr(self) -> Expr:
        return self._or()

    def _or(self) -> Expr:
        node = self._and()
        while self._eat_op("or"):
            node = Or(node, self._and())
        return node

    def _and(self) -> Expr:
        node = self._xor()
        while self._eat_op("and"):
            node = And(node, self._xor())
        return node

    def _xor(self) -> Expr:
        node = self._primary()
        while self._eat_op("xor"):
            node = Xor(node, self._primary())
        return node

    def _eat_op(self, op: str) -> bool:
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] == op:
            self.i += 1
            return True
        return False

    def _primary(self) -> Expr:
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("expected atom or '('", self._offset())
        kind, value, offset = tok
        if kind == "atom":
            self.i += 1
            # [[F<n>]] is accepted as an alias for [F<n>]
            inner = value[1:-1] if value.startswith("[[") else value
            return Atom(FactId(int(inner[2:-1])))
        if kind == "lpar":
            self.i += 1
            node = self.parse_expr()
            tok = self.peek()
            if tok is None or tok[0] != "rpar":
                raise ExprSyntaxError("unbalanced '('", self._offset())
            self.i += 1
            return node
        raise ExprSyntaxError(f"unexpected token {value!r}", offset)


def parse_expr(text: str) -> Expr:
    if not text.strip():
        raise ExprSyntaxError("empty input", 0)
    p = _Parser(text)
    node = p.parse_expr()
    p.expect_end()
    return node


def _split_arrow(text: str) -> tuple[str, str] | None:
    """Split on a top-level '->'; None when absent. Nested arrows are rejected."""
    depth = 0
    positions = []
    i = 0
    while i < len(text) - 1:
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == "-" and text[i + 1] == ">" and depth == 0:
            positions.append(i)
            i += 1
        i += 1
    if not positions:
        return None
    if len(positions) > 1:
        raise RuleShapeError("unsupported rule shape: chained implication")
    p = positions[0]
    return text[:p], text[p + 2:]


def _binary_atoms(e: Expr) -> bool:
    return isinstance(e, (And, Or, Xor)) and isinstance(e.left, Atom) \
        and isinstance(e.right, Atom)


def _parse_shape(text: str) -> Union[Implication, XorConstraint]:
    parts = _split_arrow(text)
    if parts is None:
        expr = parse_expr(text)
        if isinstance(expr, Xor) and _binary_atoms(expr):
            return XorConstraint(expr.left.fact, expr.right.fact)
        raise RuleShapeError(f"unsupported rule shape: {text.strip()!r}")
    return Implication(parse_expr(parts[0]), parse_expr(parts[1]))


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_rule(text: str) -> Rule:
    return make_rule(_parse_shape(text))


_ANTE_TEMPLATES = {And: RuleTemplate.AND_ANTE, Or: RuleTemplate.OR_ANTE,
                   Xor: RuleTemplate.XOR_ANTE}
_CONS_TEMPLATES = {And: RuleTemplate.AND_CONS, Or: RuleTemplate.OR_CONS}


def make_rule(shape: Union[Implication, XorConstraint]) -> Rule:
    """The Rule a parsed tree denotes; RuleShapeError when it fits no template
    or binds one fact to two slots."""
    if isinstance(shape, XorConstraint):
        return Rule(RuleTemplate.XOR_BARE, (shape.left, shape.right))
    ante, cons = shape.antecedent, shape.consequent
    if isinstance(ante, Atom) and isinstance(cons, Atom):
        return Rule(RuleTemplate.IMPL, (ante.fact, cons.fact))
    if isinstance(cons, Atom) and _binary_atoms(ante):
        return Rule(_ANTE_TEMPLATES[type(ante)],
                    (ante.left.fact, ante.right.fact, cons.fact))
    if isinstance(ante, Atom) and type(cons) in _CONS_TEMPLATES and _binary_atoms(cons):
        return Rule(_CONS_TEMPLATES[type(cons)],
                    (ante.fact, cons.left.fact, cons.right.fact))
    raise RuleShapeError(f"unsupported rule shape: {render_expr(ante)} -> {render_expr(cons)}")


def render_expr(e: Expr) -> str:
    if isinstance(e, Atom):
        return str(e.fact)
    op = {And: "and", Or: "or", Xor: "xor"}[type(e)]
    return f"({render_expr(e.left)} {op} {render_expr(e.right)})"


def render_rule(r: Rule) -> str:
    return _rule_text(r.template, r.slots)


# The render side of the parse caches: a corpus writes the same rule and
# literal texts many times over. Each text is built from the fact indices,
# so a cached entry does not depend on which equal key filled it.
@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def _rule_text(template: RuleTemplate, slots: tuple[FactId, ...]) -> str:
    return TEMPLATES[template][1].format(*(f"[F{int(f)}]" for f in slots))


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def render_literal(lit: Literal) -> str:
    """``str(lit)``, ``[F3]=True``."""
    fact, value = lit
    return f"[F{int(fact)}]={bool(value)}"


class StateConflictError(ValueError):
    """Raised when an assignment would silently flip an established value."""


def assign_literal(values: dict[FactId, bool], lit: Literal) -> None:
    """Set ``lit`` in a plain assignment, in place; ``StateConflictError``
    when it would flip an established value. The hot loops fill one dict
    with this instead of copying a ``State`` per literal."""
    fact, value = lit
    current = values.get(fact)
    if current is not None and current != value:
        raise StateConflictError(f"{fact} is already {current}, refusing {value}")
    values[fact] = value


class State:
    """Immutable three-valued assignment; unassigned facts read as Unknown."""

    __slots__ = ("_assignment",)

    def __init__(self, assignment: Mapping[FactId, bool] | None = None):
        object.__setattr__(self, "_assignment", dict(assignment or {}))

    def value_of(self, fact: FactId) -> TruthValue:
        v = self._assignment.get(fact)
        return TruthValue.UNKNOWN if v is None else TruthValue.of(v)

    def holds(self, lit: Literal) -> bool:
        return self._assignment.get(lit.fact) == lit.value

    def with_literal(self, lit: Literal, *, overwrite: bool = False) -> "State":
        """Extend with one literal. Flipping an established value requires
        overwrite=True; counterfactual recomputation is the only caller that does."""
        updated = dict(self._assignment)
        if overwrite:
            updated[lit.fact] = lit.value
        else:
            assign_literal(updated, lit)
        return State(updated)

    def with_literals(self, lits, *, overwrite: bool = False) -> "State":
        state = self
        for lit in lits:
            state = state.with_literal(lit, overwrite=overwrite)
        return state

    def literals(self) -> tuple[Literal, ...]:
        return tuple(Literal(f, v) for f, v in sorted(self._assignment.items()))

    def facts(self) -> frozenset[FactId]:
        return frozenset(self._assignment)

    def __len__(self) -> int:
        return len(self._assignment)

    def __eq__(self, other) -> bool:
        return isinstance(other, State) and self._assignment == other._assignment

    def __repr__(self) -> str:
        inner = ", ".join(str(l) for l in self.literals())
        return f"State({inner})"
