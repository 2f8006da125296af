"""Fact/rule language: parsing, printing, three-valued states.

Atoms are written ``[F<n>]``; connectives are ``and``, ``or``, ``xor`` and the
rule arrow ``->``. Negation is not a connective: negative information lives in
False-valued assignments. A partial state reads an unassigned fact as Unknown.

A rule is flat: one of seven templates plus its slot facts (A, B[, C]).
``TEMPLATES`` gives each template's slot count and canonical text, and is the
only statement of the rule-text format: ``render_rule`` fills a template's
text and ``parse_rule`` looks a text up among the templates' texts with the
slots cut out. Any other text, for example one with extra spaces or
parentheses, is a ``RuleShapeError``. ``Rule.shape`` gives a rule's
expression tree, built from its template and slots.

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


class RuleShapeError(ValueError):
    """Raised on rule text that is not one of the canonical template texts,
    and on a rule that binds one fact to two slots."""


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


# Per template: its expression tree, from the slot facts.
_SHAPES = {
    RuleTemplate.IMPL: lambda a, b: Implication(Atom(a), Atom(b)),
    RuleTemplate.AND_ANTE: lambda a, b, c: Implication(And(Atom(a), Atom(b)), Atom(c)),
    RuleTemplate.AND_CONS: lambda a, b, c: Implication(Atom(a), And(Atom(b), Atom(c))),
    RuleTemplate.OR_ANTE: lambda a, b, c: Implication(Or(Atom(a), Atom(b)), Atom(c)),
    RuleTemplate.OR_CONS: lambda a, b, c: Implication(Atom(a), Or(Atom(b), Atom(c))),
    RuleTemplate.XOR_ANTE: lambda a, b, c: Implication(Xor(Atom(a), Atom(b)), Atom(c)),
    RuleTemplate.XOR_BARE: XorConstraint,
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
        return _SHAPES[self.template](*self.slots)

    def __str__(self) -> str:
        return render_rule(self)


# A slot fact in rule text: ``[F<n>]``, n in ASCII digits without leading zeros.
_SLOT_RE = re.compile(r"\[F(0|[1-9][0-9]*)\]")
# Each template's text with its slots cut out, e.g. ``("(", " and ", ") -> ", "")``
# for ``([F0] and [F1]) -> [F2]``; every text names its slots in slot order.
_SKELETONS: dict[tuple[str, ...], RuleTemplate] = {
    tuple(re.split(r"\{\d\}", text)): template
    for template, (_, text) in TEMPLATES.items()
}


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_rule(text: str) -> Rule:
    """The ``Rule`` of a canonical rule text; ``RuleShapeError`` on any other
    text, and on a text that binds one fact to two slots."""
    parts = _SLOT_RE.split(text)
    template = _SKELETONS.get(tuple(parts[::2]))
    if template is None:
        raise RuleShapeError(f"not a canonical rule text: {text!r}")
    return Rule(template, tuple(FactId(int(n)) for n in parts[1::2]))


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


def assign_literal(known: dict[FactId, Literal], lit: Literal) -> None:
    """Set ``lit`` in place in ``known``, which maps each assigned fact to its
    literal; ``StateConflictError`` when it would flip an established value."""
    if known.setdefault(lit.fact, lit) != lit:
        raise StateConflictError(f"{lit.fact} is already {not lit.value}, refusing {lit.value}")


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
        fact, value = lit
        if not overwrite and self._assignment.get(fact, value) != value:
            raise StateConflictError(f"{fact} is already {not value}, refusing {value}")
        return State({**self._assignment, fact: value})

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
