"""Entailment over small fact universes, plus the licensed inference patterns.

The backend enumerates every full True/False assignment of the universe with
bitmask vectors, keeps the satisfying ones, and answers queries by filtering.
Universes are small by construction (cap 24, default chains stay well under),
which keeps the prover trivially auditable. ``propagate`` is a unit-propagation
fast path over the pattern catalog; it is sound but not complete, and the test
suite cross-checks it against enumeration.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .logic import (
    And,
    Atom,
    Expr,
    FactId,
    Implication,
    Literal,
    Or,
    Rule,
    RuleTemplate,
    State,
    Xor,
    XorConstraint,
    make_rule,
)

UNIVERSE_CAP = 24
_CHUNK_BITS = 20


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


def _rule_mask(rule: Rule, columns: dict[FactId, int], assign: np.ndarray) -> np.ndarray:
    def ev(e: Expr) -> np.ndarray:
        if isinstance(e, Atom):
            return (assign >> columns[e.fact]) & 1 == 1
        a, b = ev(e.left), ev(e.right)
        if isinstance(e, And):
            return a & b
        if isinstance(e, Or):
            return a | b
        return a ^ b

    s = rule.shape
    if isinstance(s, XorConstraint):
        left = (assign >> columns[s.left]) & 1 == 1
        right = (assign >> columns[s.right]) & 1 == 1
        return left ^ right
    return ~ev(s.antecedent) | ev(s.consequent)


class ModelTable:
    """All satisfying full assignments of a theory, as bitmasks."""

    def __init__(self, theory: Theory):
        self.theory = theory
        self.columns = {f: i for i, f in enumerate(theory.universe)}
        n = len(theory.universe)
        chunks = []
        for lo in range(0, 1 << n, 1 << min(n, _CHUNK_BITS)):
            hi = min((1 << n), lo + (1 << _CHUNK_BITS))
            assign = np.arange(lo, hi, dtype=np.int64)
            ok = np.ones(assign.shape, dtype=bool)
            for rule in theory.rules:
                ok &= _rule_mask(rule, self.columns, assign)
            chunks.append(assign[ok])
        self.models = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)

    def restrict(self, models: np.ndarray, lit: Literal) -> np.ndarray:
        bit = (models >> self.columns[lit.fact]) & 1
        return models[bit == (1 if lit.value else 0)]

    def restrict_state(self, s: State) -> np.ndarray:
        models = self.models
        for lit in s.literals():
            models = self.restrict(models, lit)
        return models

    def decide(self, models: np.ndarray, q: Literal) -> EntailmentResult:
        if models.size == 0:
            return EntailmentResult(Status.INCONSISTENT)
        bit = (models >> self.columns[q.fact]) & 1
        want = 1 if q.value else 0
        if bool(np.all(bit == want)):
            return EntailmentResult(Status.ENTAILED)
        counter = int(models[bit != want][0])
        assignment = {f: bool((counter >> i) & 1) for f, i in self.columns.items()}
        return EntailmentResult(Status.NOT_ENTAILED, witness=State(assignment))


@functools.lru_cache(maxsize=256)
def model_table(theory: Theory) -> ModelTable:
    return ModelTable(theory)


def count_models(theory: Theory, s: State) -> int:
    """Number of full assignments extending ``s`` that satisfy every rule."""
    stray = [f for f in s.facts() if f not in set(theory.universe)]
    if stray:
        raise ValueError(f"state mentions facts outside universe: {stray}")
    return int(model_table(theory).restrict_state(s).size)


def entails(theory: Theory, s: State, q: Literal) -> EntailmentResult:
    """Entailed iff every model of (theory, s) assigns ``q``; a countermodel is
    returned when some model disagrees; Inconsistent when no model exists."""
    table = model_table(theory)
    return table.decide(table.restrict_state(s), q)


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

def _template_rule(template: RuleTemplate) -> Rule:
    a, b, c = FactId(0), FactId(1), FactId(2)
    shapes = {
        RuleTemplate.IMPL: Implication(Atom(a), Atom(b)),
        RuleTemplate.AND_ANTE: Implication(And(Atom(a), Atom(b)), Atom(c)),
        RuleTemplate.AND_CONS: Implication(Atom(a), And(Atom(b), Atom(c))),
        RuleTemplate.OR_ANTE: Implication(Or(Atom(a), Atom(b)), Atom(c)),
        RuleTemplate.OR_CONS: Implication(Atom(a), Or(Atom(b), Atom(c))),
        RuleTemplate.XOR_ANTE: Implication(Xor(Atom(a), Atom(b)), Atom(c)),
        RuleTemplate.XOR_BARE: XorConstraint(a, b),
    }
    return make_rule(shapes[template])


@functools.lru_cache(maxsize=1)
def verify_catalog() -> bool:
    """Check every pattern sound by enumeration over its template's slot atoms."""
    for template, patterns in _CATALOG.items():
        rule = _template_rule(template)
        arity = len(rule.facts())
        for pattern in patterns:
            premises = pattern.bind_premises(rule)
            derived = pattern.bind_derived(rule)
            for bits in itertools.product([False, True], repeat=arity):
                assignment = {FactId(i): bits[i] for i in range(arity)}
                state = State(assignment)
                rule_theory = theory_for([rule])
                if count_models(rule_theory, state) == 0:
                    continue
                if all(state.holds(p) for p in premises) and not state.holds(derived):
                    raise AssertionError(
                        f"unsound pattern {pattern} under {assignment}")
    return True


def licensed_patterns(rule: Rule) -> tuple[InferencePattern, ...]:
    verify_catalog()
    return _CATALOG[rule.template]


def match_pattern(rule: Rule, supports: Iterable[Literal],
                  conclusion: Literal) -> Optional[InferencePattern]:
    """The licensed pattern this (supports, conclusion) pair instantiates.

    Supports may list extra known rule facts beyond the pattern's premises;
    the match requires every premise to be present and the derived literal to
    equal the conclusion.
    """
    supports = set(supports)
    for pattern in licensed_patterns(rule):
        if pattern.bind_derived(rule) != conclusion:
            continue
        if all(p in supports for p in pattern.bind_premises(rule)):
            return pattern
    return None


def patterns_concluding_fact(rule: Rule, fact: FactId) -> tuple[InferencePattern, ...]:
    """Licensed patterns of ``rule`` that derive ``fact``, either value."""
    facts = rule.facts()
    return tuple(p for p in licensed_patterns(rule) if facts[p.derived[0]] == fact)


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
                if current.name != "UNKNOWN":
                    if bool(current) != derived.value:
                        raise PropagationContradiction(
                            f"{rule} derives {derived} against established value")
                    continue
                state = state.with_literal(derived)
                changed = True
    return state
