"""Entailment over small fact universes, plus the licensed inference patterns.

The backend is a truth table held in one Python int per theory: bit ``a`` is
set iff assignment ``a`` satisfies every rule. A table is built under a set of
fixed literals, the facts a walk already knows (its base facts), and spans only
the universe facts they leave free: bit ``i`` of ``a`` is the value of the
``i``-th free fact. A free fact's column is the periodic mask of the
assignments where it is true and a fixed fact's column is the constant
all-ones or ``0``, so each rule, each restriction and each query is a few
bitwise operations over the whole table (the "bitwise tricks" of Knuth, TAOCP
4A section 7.1.3), and fixing a fact halves the table (unit assignment, as in
Davis, Logemann and Loveland, CACM 1962). Universes are small by construction
(cap 24, a 2 MB table with nothing fixed; default chains stay well under),
which keeps the prover trivially auditable. ``propagate`` is a
unit-propagation fast path over the pattern catalog; it is sound but not
complete, and the test suite cross-checks it against enumeration.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .logic import (
    TEMPLATES,
    FactId,
    Literal,
    Rule,
    RuleTemplate,
    State,
    TruthValue,
)

UNIVERSE_CAP = 24


class UniverseTooLargeError(ValueError):
    pass


class PropagationContradiction(ValueError):
    """A pattern derived the negation of an assigned value."""


@dataclass(frozen=True)
class Theory:
    rules: tuple[Rule, ...]
    universe: tuple[FactId, ...]

    def __post_init__(self):
        if len(self.universe) > UNIVERSE_CAP:
            raise UniverseTooLargeError(
                f"universe of {len(self.universe)} facts exceeds cap {UNIVERSE_CAP}")
        known = set(self.universe)
        for rule in self.rules:
            missing = [f for f in rule.facts() if f not in known]
            if missing:
                raise ValueError(f"rule {rule} mentions facts outside universe: {missing}")


def theory_for(rules: Iterable[Rule], extra_facts: Iterable[FactId] = ()) -> Theory:
    """Theory whose universe is every fact mentioned, in index order."""
    facts = set(extra_facts)
    rules = tuple(rules)
    for rule in rules:
        facts.update(rule.facts())
    return Theory(rules, tuple(sorted(facts)))


class Status(enum.Enum):
    ENTAILED = "entailed"
    NOT_ENTAILED = "not_entailed"
    INCONSISTENT = "inconsistent"


@dataclass(frozen=True)
class EntailmentResult:
    status: Status
    witness: Optional[State] = None

    def __bool__(self) -> bool:
        return self.status is Status.ENTAILED


def _column(n: int, i: int) -> int:
    """Fact slot ``i``'s column in an n-fact table: bit ``a`` set iff ``a`` has bit ``i``."""
    if n < 3:
        return sum(1 << a for a in range(1 << n) if a >> i & 1)
    if i < 3:
        pattern = bytes([(0xAA, 0xCC, 0xF0)[i]])
    else:
        half = 1 << (i - 3)
        pattern = b"\x00" * half + b"\xff" * half
    return int.from_bytes(pattern * ((1 << (n - 3)) // len(pattern)), "little")


# one size: free counts vary from table to table, and only the current
# table's columns are read, so older sizes are not kept
@functools.lru_cache(maxsize=1)
def _columns(n: int) -> tuple[int, ...]:
    """The n slot columns of an n-fact table."""
    return tuple(_column(n, i) for i in range(n))


# The assignments satisfying each template, as a function of the all-ones
# mask and the slot columns (A, B[, C]).
_TEMPLATE_ROWS = {
    RuleTemplate.IMPL: lambda full, a, b: (full ^ a) | b,
    RuleTemplate.AND_ANTE: lambda full, a, b, c: (full ^ (a & b)) | c,
    RuleTemplate.AND_CONS: lambda full, a, b, c: (full ^ a) | (b & c),
    RuleTemplate.OR_ANTE: lambda full, a, b, c: (full ^ (a | b)) | c,
    RuleTemplate.OR_CONS: lambda full, a, b, c: (full ^ a) | b | c,
    RuleTemplate.XOR_ANTE: lambda full, a, b, c: (full ^ (a ^ b)) | c,
    RuleTemplate.XOR_BARE: lambda full, a, b: a ^ b,
}


class ModelTable:
    """The satisfying assignments of a theory under fixed literals, one bit per
    assignment of the free facts.

    ``fixed`` assigns at most one value per fact, all in the theory's universe.
    ``slots`` numbers the free facts in universe order; ``columns`` maps every
    universe fact to its column, a fixed fact's being the constant all-ones
    (true) or ``0`` (false), so ``restrict``, ``entailed`` and ``decide`` treat
    both alike. Free assignments keep the index order of the full ones, so
    ``decide``'s witness is the one the full table restricted to ``fixed`` gives.
    """

    def __init__(self, theory: Theory, fixed: Iterable[Literal] = ()):
        self.theory = theory
        self.fixed = dict(fixed)
        stray = [f for f in self.fixed if f not in theory.universe]
        if stray:
            raise ValueError(f"fixed facts outside universe: {stray}")
        free = [f for f in theory.universe if f not in self.fixed]
        n = len(free)
        self.slots = {f: i for i, f in enumerate(free)}
        full = (1 << (1 << n)) - 1
        self.columns = cols = dict(zip(free, _columns(n)))
        for f, v in self.fixed.items():
            cols[f] = full if v else 0
        rows = full
        for rule in theory.rules:
            rows &= _TEMPLATE_ROWS[rule.template](full, *map(cols.__getitem__, rule.slots))
        self.rows = rows

    def restrict(self, rows: int, lit: Literal) -> int:
        # rows ^ (rows & col) is rows & ~col; it avoids negative big ints,
        # whose bitwise ops are several times slower
        kept = rows & self.columns[lit.fact]
        return kept if lit.value else rows ^ kept

    def restrict_state(self, s: State) -> int:
        rows = self.rows
        for lit in s.literals():
            rows = self.restrict(rows, lit)
        return rows

    def entailed(self, rows: int, lit: Literal) -> bool:
        """``rows`` is non-empty and lies all in ``lit``'s column (true) or all
        outside it (false); a fact outside the universe is never entailed."""
        column = self.columns.get(lit.fact)
        return (column is not None and rows != 0
                and rows & column == (rows if lit.value else 0))

    def decide(self, rows: int, q: Literal) -> EntailmentResult:
        if not rows:
            return EntailmentResult(Status.INCONSISTENT)
        if self.entailed(rows, q):
            return EntailmentResult(Status.ENTAILED)
        against = rows ^ self.restrict(rows, q)
        # the lowest disagreeing assignment, so the witness is deterministic
        counter = (against & -against).bit_length() - 1
        slots, fixed = self.slots, self.fixed
        assignment = {f: fixed[f] if f in fixed else bool(counter >> slots[f] & 1)
                      for f in self.theory.universe}
        return EntailmentResult(Status.NOT_ENTAILED, witness=State(assignment))


# one entry: each walk reads one table, built under the state it starts from,
# and no walk reads an older one
@functools.lru_cache(maxsize=1)
def model_table(theory: Theory, fixed: tuple[Literal, ...] = ()) -> ModelTable:
    """The table of ``theory`` under ``fixed``, the literals of a ``State``."""
    return ModelTable(theory, fixed)


def count_models(theory: Theory, s: State) -> int:
    """Number of full assignments extending ``s`` that satisfy every rule."""
    return model_table(theory, s.literals()).rows.bit_count()


def entails(theory: Theory, s: State, q: Literal) -> EntailmentResult:
    """Entailed iff every model of (theory, s) assigns ``q``; a countermodel is
    returned when some model disagrees; Inconsistent when no model exists."""
    table = model_table(theory, s.literals())
    return table.decide(table.rows, q)


class Direction(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass(frozen=True)
class InferencePattern:
    """One sound derivation direction of a rule template.

    Slots index into Rule.facts(); premises are (slot, required value) pairs
    and the derived slot receives the stated value when all premises hold.
    """

    template: RuleTemplate
    premises: tuple[tuple[int, bool], ...]
    derived: tuple[int, bool]
    direction: Direction

    def bind_premises(self, rule: Rule) -> tuple[Literal, ...]:
        facts = rule.facts()
        return tuple(Literal(facts[i], v) for i, v in self.premises)

    def bind_derived(self, rule: Rule) -> Literal:
        facts = rule.facts()
        return Literal(facts[self.derived[0]], self.derived[1])


def _p(template, premises, derived, direction) -> InferencePattern:
    return InferencePattern(template, tuple(premises), derived, direction)


_F = Direction.FORWARD
_B = Direction.BACKWARD

# Sound directions per template; the converse of an implication is absent by
# design. Slot order follows Rule.facts(): IMPL (A, B); *_ANTE (A, B, C) with
# consequent last; *_CONS (A, B, C) with antecedent first.
_CATALOG: dict[RuleTemplate, tuple[InferencePattern, ...]] = {
    RuleTemplate.IMPL: (
        _p(RuleTemplate.IMPL, [(0, True)], (1, True), _F),
        _p(RuleTemplate.IMPL, [(1, False)], (0, False), _B),
    ),
    RuleTemplate.AND_ANTE: (
        _p(RuleTemplate.AND_ANTE, [(0, True), (1, True)], (2, True), _F),
        _p(RuleTemplate.AND_ANTE, [(2, False), (0, True)], (1, False), _B),
        _p(RuleTemplate.AND_ANTE, [(2, False), (1, True)], (0, False), _B),
    ),
    RuleTemplate.AND_CONS: (
        _p(RuleTemplate.AND_CONS, [(0, True)], (1, True), _F),
        _p(RuleTemplate.AND_CONS, [(0, True)], (2, True), _F),
        _p(RuleTemplate.AND_CONS, [(1, False)], (0, False), _B),
        _p(RuleTemplate.AND_CONS, [(2, False)], (0, False), _B),
    ),
    RuleTemplate.OR_ANTE: (
        _p(RuleTemplate.OR_ANTE, [(0, True)], (2, True), _F),
        _p(RuleTemplate.OR_ANTE, [(1, True)], (2, True), _F),
        _p(RuleTemplate.OR_ANTE, [(2, False)], (0, False), _B),
        _p(RuleTemplate.OR_ANTE, [(2, False)], (1, False), _B),
    ),
    RuleTemplate.OR_CONS: (
        _p(RuleTemplate.OR_CONS, [(0, True), (1, False)], (2, True), _F),
        _p(RuleTemplate.OR_CONS, [(0, True), (2, False)], (1, True), _F),
        _p(RuleTemplate.OR_CONS, [(1, False), (2, False)], (0, False), _B),
    ),
    RuleTemplate.XOR_ANTE: (
        _p(RuleTemplate.XOR_ANTE, [(0, True), (1, False)], (2, True), _F),
        _p(RuleTemplate.XOR_ANTE, [(0, False), (1, True)], (2, True), _F),
        _p(RuleTemplate.XOR_ANTE, [(2, False), (1, True)], (0, True), _B),
        _p(RuleTemplate.XOR_ANTE, [(2, False), (1, False)], (0, False), _B),
        _p(RuleTemplate.XOR_ANTE, [(2, False), (0, True)], (1, True), _B),
        _p(RuleTemplate.XOR_ANTE, [(2, False), (0, False)], (1, False), _B),
    ),
    RuleTemplate.XOR_BARE: (
        _p(RuleTemplate.XOR_BARE, [(0, True)], (1, False), _F),
        _p(RuleTemplate.XOR_BARE, [(0, False)], (1, True), _F),
        _p(RuleTemplate.XOR_BARE, [(1, True)], (0, False), _B),
        _p(RuleTemplate.XOR_BARE, [(1, False)], (0, True), _B),
    ),
}


@functools.lru_cache(maxsize=1)
def verify_catalog() -> bool:
    """Check every pattern sound by enumeration over its template's slot atoms."""
    for template, patterns in _CATALOG.items():
        arity = TEMPLATES[template][0]
        rule = Rule(template, tuple(FactId(i) for i in range(arity)))
        rule_theory = theory_for([rule])
        for pattern in patterns:
            premises = pattern.bind_premises(rule)
            derived = pattern.bind_derived(rule)
            for bits in itertools.product([False, True], repeat=arity):
                assignment = {FactId(i): bits[i] for i in range(arity)}
                state = State(assignment)
                if count_models(rule_theory, state) == 0:
                    continue
                if all(state.holds(p) for p in premises) and not state.holds(derived):
                    raise AssertionError(
                        f"unsound pattern {pattern} under {assignment}")
    return True


def licensed_patterns(rule: Rule) -> tuple[InferencePattern, ...]:
    return _CATALOG[rule.template]


def match_pattern(rule: Rule, supports: Iterable[Literal],
                  conclusion: Literal) -> Optional[InferencePattern]:
    """The licensed pattern this (supports, conclusion) pair instantiates.

    Supports may list extra known rule facts beyond the pattern's premises;
    the match requires every premise to be present and the derived literal to
    equal the conclusion.
    """
    slots = rule.slots
    # a Literal is a (fact, value) tuple, so a plain tuple finds it; a step
    # lists a support or two, so a tuple scan beats building a set
    known = tuple(supports)
    for pattern in patterns_deriving(rule, conclusion):
        for i, v in pattern.premises:
            if (slots[i], v) not in known:
                break
        else:
            return pattern
    return None


# per template and (derived slot, derived value), the catalog patterns that
# derive it, in catalog order
_CONCLUDING: dict[RuleTemplate, dict[tuple[int, bool], tuple[InferencePattern, ...]]] = {
    template: {(slot, value): tuple(p for p in patterns if p.derived == (slot, value))
               for slot in range(TEMPLATES[template][0]) for value in (False, True)}
    for template, patterns in _CATALOG.items()}


def patterns_deriving(rule: Rule, lit: Literal) -> tuple[InferencePattern, ...]:
    """The licensed patterns of ``rule`` that derive ``lit``, in catalog
    order; none when ``lit``'s fact is not a slot of the rule."""
    slots = rule.slots
    fact, value = lit
    if fact not in slots:
        return ()
    return _CONCLUDING[rule.template][slots.index(fact), value]


def propagate(theory: Theory, s: State) -> State:
    """Least fixpoint of the pattern catalog over ``s``; sound, maybe incomplete."""
    state = s
    changed = True
    while changed:
        changed = False
        for rule in theory.rules:
            for pattern in licensed_patterns(rule):
                if not all(state.holds(p) for p in pattern.bind_premises(rule)):
                    continue
                derived = pattern.bind_derived(rule)
                current = state.value_of(derived.fact)
                if current is not TruthValue.UNKNOWN:
                    if bool(current) != derived.value:
                        raise PropagationContradiction(
                            f"{rule} derives {derived} against established value")
                    continue
                state = state.with_literal(derived)
                changed = True
    return state
