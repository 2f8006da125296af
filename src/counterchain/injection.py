"""Corruption of verified chains at a controlled first-error position.

Eleven error types in two families, one row of ``ROWS`` each, which
``inject`` and ``verify_first_error`` share: where the type applies, the steps
step k may become, what else is checked, and how many steps it adds.
Truth-state types keep the chain shape and replace step k's conclusion (or a
cited support value) with the type's canonical wrong output; they are
verified by prefix non-derivability of the corrupted conclusion, whose
supports must be established facts of its rule. Structural types mutate the
trajectory shape (direction misuse, duplicate work, missing bridge facts,
cyclic support) and may remain locally truth-compatible, so each row carries
its own predicate.

After the corruption, every later step is re-derived by applying its rule's
licensed patterns to the explicit corrupted state, never by global entailment:
the corrupted state may contradict the theory, which is precisely what makes
the continuation a counterfactual. Instances whose continuation cannot be
re-derived are rejected, and the verifier compares it with the stored steps.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from .logic import Literal, Rule, RuleTemplate
from .prover import Direction, InferencePattern, match_pattern, patterns_deriving
from .synthesis import CorrectChain, Prefix, Step, known_supports, topological_order


class ErrorGroup(enum.Enum):
    TRUTH_STATE = "truth_state"
    STRUCTURAL = "structural"


class ErrorType(enum.Enum):
    DROP_CONDITION = "drop_condition"
    IMPLICATION_MISUSE = "implication_misuse"
    OR_AND_CONFUSION = "or_and_confusion"
    PARTIAL_EVALUATION = "partial_evaluation"
    XOR_AS_OR = "xor_as_or"
    XOR_AS_EQUIV = "xor_as_equiv"
    VACUOUS_TRUTH_ERROR = "vacuous_truth_error"
    CONVERSE_ERROR = "converse_error"
    REDUNDANT_STEP = "redundant_step"
    MISSING_PREREQUISITE = "missing_prerequisite"
    CIRCULAR_REFERENCE = "circular_reference"

    __hash__ = object.__hash__  # identity hash in C, as for ``RuleTemplate``

    @property
    def group(self) -> ErrorGroup:
        return ROWS[self].group


class InjectionInfeasible(ValueError):
    pass


class DownstreamStuck(ValueError):
    pass


@dataclass(frozen=True)
class ErroneousChain:
    steps: tuple[Step, ...]
    first_error_index: int
    error_type: ErrorType

    @property
    def corrupted(self) -> Step:
        return self.steps[self.first_error_index - 1]


@dataclass(frozen=True)
class ContextProfile:
    name: str
    background: str


@dataclass(frozen=True)
class Instance:
    id: str
    correct: CorrectChain
    erroneous: ErroneousChain
    seed: int = 0
    context: Optional[ContextProfile] = None
    nl: Optional[dict] = None
    # derived fields (labels, polarity) as stored in the record this instance
    # was read from; ``verify`` compares them with what the instance implies
    stored: dict = field(default_factory=dict, compare=False)

    @property
    def k(self) -> int:
        return self.erroneous.first_error_index

    @property
    def error_type(self) -> ErrorType:
        return self.erroneous.error_type

    @property
    def reached_goal_polarity(self) -> bool:
        return self.erroneous.steps[-1].conclusion.value


# ---------------------------------------------------------------------------
# the rows: where each type applies, what step k may become, what is checked


def spare_implications(chain: CorrectChain) -> tuple[Rule, ...]:
    """IMPL rules present in the theory but cited by no step."""
    cited = {s.rule for s in chain.steps}
    return tuple(r for r in chain.rules
                 if r.template is RuleTemplate.IMPL and r not in cited)


def _established_literals(chain: CorrectChain, upto: int) -> set[Literal]:
    """Base facts plus conclusions of steps before 1-based position ``upto``."""
    out = set(chain.base_facts)
    for step in chain.steps[: upto - 1]:
        out.add(step.conclusion)
    return out


def _applied_pattern(step: Step) -> Optional[InferencePattern]:
    return match_pattern(step.rule, step.supports, step.conclusion)


def _hooks(chain: CorrectChain, k: int) -> tuple[list[Rule], list[Rule]]:
    """Step k's vacuous and converse hooks: spare implications A -> B with B
    established true before k and A established false, or A unassigned. Both
    keep ``chain.rules`` order, the order their corruptions are listed in."""
    established = _established_literals(chain, k)
    assigned = {l.fact for l in established}
    spare = [r for r in spare_implications(chain) if Literal(r.slots[1], True) in established]
    return ([r for r in spare if Literal(r.slots[0], False) in established],
            [r for r in spare if r.slots[0] not in assigned])


def _cycle_sites(chain: CorrectChain, k: int) -> list[tuple[int, Literal]]:
    """Later steps (j, conclusion), ascending j, that consume step k's
    conclusion while concluding a fact in an unassigned slot of its rule."""
    step = chain.steps[k - 1]
    open_slots = set(step.rule.slots) - step.support_facts() - {step.conclusion.fact}
    return [(j, later.conclusion) for j, later in enumerate(chain.steps[k:], k + 1)
            if later.conclusion.fact in open_slots and step.conclusion in later.supports]


def _bridges_premise(chain: CorrectChain, k: int) -> bool:
    """Step k's conclusion is a premise of its consumer's applied pattern,
    not merely an extra listed support, so dropping it removes a premise."""
    consumer = chain.steps[k]
    pattern = _applied_pattern(consumer)
    return pattern is not None and \
        chain.steps[k - 1].conclusion in pattern.bind_premises(consumer.rule)


def _premise_still_established(step: Step, established: set[Literal]) -> Optional[str]:
    """None when ``step`` misses a premise: it cites a support not
    established, or every pattern of its rule that concludes its literal has
    a premise not established. Otherwise, why it misses none."""
    if any(l not in established for l in step.supports):
        return None
    patterns = patterns_deriving(step.rule, step.conclusion)
    if not patterns:
        return "no pattern can conclude the corrupted step's literal"
    if all(any(p not in established for p in pat.bind_premises(step.rule))
           for pat in patterns):
        return None
    return "every required premise is established"


# corruptions: the steps step k may become, in the order ``inject`` draws from


def _negate(chain: CorrectChain, k: int) -> list[Step]:
    step = chain.steps[k - 1]
    return [replace(step, conclusion=step.conclusion.negated())]


def _dual_reading(chain: CorrectChain, k: int) -> list[Step]:
    """Read the connective as its dual: conclude the negation of the
    established premise the dual reading would force, the false disjunct of
    a forward OR_CONS or the true conjunct of a backward AND_ANTE."""
    step = chain.steps[k - 1]
    if step.rule.template is RuleTemplate.OR_CONS:
        wrong = Literal(step.rule.slots[1], True)
    else:
        wrong = Literal(step.rule.slots[0], False)
    known = {l.fact: l for l in step.supports if l.fact != wrong.fact}
    return [Step(k, known_supports(step.rule, wrong.fact, known), step.rule, wrong)]


def _vacuous(chain: CorrectChain, k: int) -> list[Step]:
    return [Step(k, (Literal(hook.slots[0], False),), hook, Literal(hook.slots[1], False))
            for hook in _hooks(chain, k)[0]]


def _converse(chain: CorrectChain, k: int) -> list[Step]:
    hooks = _hooks(chain, k)[1]
    if hooks:
        return [Step(k, (Literal(hook.slots[1], True),), hook, Literal(hook.slots[0], True))
                for hook in hooks]
    # in-place converse of the step's own implication
    step = chain.steps[k - 1]
    a, b = step.rule.slots
    if _applied_pattern(step).direction is Direction.FORWARD:
        return [Step(k, (Literal(b, True),), step.rule, Literal(a, True))]
    return [Step(k, (Literal(a, False),), step.rule, Literal(b, False))]


def _drop_bridge(chain: CorrectChain, k: int) -> list[Step]:
    """Step k's consumer, run at k without step k's conclusion; none where
    ``verify_first_error`` would refuse it, because it still has every premise."""
    consumer = chain.steps[k]
    kept = tuple(l for l in consumer.supports if l != chain.steps[k - 1].conclusion)
    corrupted = Step(k, kept, consumer.rule, consumer.conclusion)
    missing = _premise_still_established(corrupted, _established_literals(chain, k)) is None
    return [corrupted] if missing else []


def _rewire_to_future(chain: CorrectChain, k: int) -> list[Step]:
    """Step k citing a later step's conclusion in place of an open slot."""
    step = chain.steps[k - 1]
    rule, fact = step.rule, step.conclusion.fact
    known = {l.fact: l for l in step.supports}
    return [Step(k, known_supports(rule, fact, {**known, future.fact: future}), rule,
                 step.conclusion) for _, future in _cycle_sites(chain, k)]


# checks: what ``verify_first_error`` runs on the corrupted step


def _non_derivable(err: ErroneousChain, prefix: Prefix) -> list[str]:
    """A truth-state corruption keeps a sound step's supports, established
    facts of its rule other than the concluded one, and concludes what the
    prefix does not entail."""
    step = err.corrupted
    problems = []
    if not step.supports:
        problems.append("corrupted step cites no support")
    elif not prefix.established.issuperset(step.supports):
        problems.append("corrupted step cites a support not established")
    elif not step.support_facts() <= set(step.rule.facts()) - {step.conclusion.fact}:
        problems.append("corrupted step cites a support outside its rule")
    if step.conclusion.fact not in prefix.table.columns:
        problems.append("corrupted conclusion is outside the theory's universe")
    elif not prefix.rows:
        problems.append("prefix state inconsistent with the theory")
    elif prefix.table.entailed(prefix.rows, step.conclusion):
        problems.append("still-derivable")
    return problems


def _cycle_problem(err: ErroneousChain, established: set[Literal]) -> Optional[str]:
    try:
        topological_order(err.steps)
    except ValueError:
        return None
    return "no dependency cycle"


@dataclass(frozen=True)
class ErrorRow:
    """One error type. ``admits(chain, k, pattern)``: the type applies at
    step k, whose applied pattern is ``pattern``. ``corruptions(chain, k)``:
    the steps step k may become, empty where the site has none; ``inject``
    draws one and ``verify_first_error`` looks the stored one up. ``check``:
    what else the verifier runs; a truth-state check takes the replayed
    prefix and returns a list of problems, a structural one the literals
    established before k and returns a problem or None. ``length_shift``:
    steps added.
    The defaults make a truth-state row that negates step k's conclusion."""

    admits: Callable[[CorrectChain, int, InferencePattern], bool]
    corruptions: Callable[[CorrectChain, int], list[Step]] = _negate
    check: Callable = _non_derivable
    group: ErrorGroup = ErrorGroup.TRUTH_STATE
    length_shift: int = 0

    def applies(self, chain: CorrectChain, k: int) -> bool:
        """Every type needs step k to instantiate a licensed pattern."""
        if not 1 <= k <= len(chain.steps):
            raise IndexError(f"k={k} outside 1..{len(chain.steps)}")
        pattern = _applied_pattern(chain.steps[k - 1])
        return pattern is not None and self.admits(chain, k, pattern)


_T = RuleTemplate
_FORWARD = Direction.FORWARD

ROWS: dict[ErrorType, ErrorRow] = {
    ErrorType.DROP_CONDITION: ErrorRow(
        lambda chain, k, p: p.template in (_T.AND_CONS, _T.AND_ANTE)
        and p.direction is not _FORWARD),
    ErrorType.IMPLICATION_MISUSE: ErrorRow(lambda chain, k, p: p.template is _T.IMPL),
    ErrorType.OR_AND_CONFUSION: ErrorRow(
        lambda chain, k, p: (p.template is _T.OR_CONS and p.direction is _FORWARD)
        or (p.template is _T.AND_ANTE and p.direction is not _FORWARD),
        _dual_reading),
    ErrorType.PARTIAL_EVALUATION: ErrorRow(
        lambda chain, k, p: p.template in (_T.AND_CONS, _T.AND_ANTE, _T.OR_CONS, _T.OR_ANTE)
        and p.direction is _FORWARD),
    ErrorType.XOR_AS_OR: ErrorRow(
        lambda chain, k, p: (p.template is _T.XOR_BARE and p.premises[0][1])
        or (p.template is _T.XOR_ANTE and p.direction is not _FORWARD and p.derived[1])),
    ErrorType.XOR_AS_EQUIV: ErrorRow(
        lambda chain, k, p: p.template in (_T.XOR_BARE, _T.XOR_ANTE)),
    ErrorType.VACUOUS_TRUTH_ERROR: ErrorRow(
        lambda chain, k, p: bool(_hooks(chain, k)[0]), _vacuous),
    ErrorType.CONVERSE_ERROR: ErrorRow(
        lambda chain, k, p: p.template is _T.IMPL or bool(_hooks(chain, k)[1]),
        _converse,
        lambda err, established: None if _applied_pattern(err.corrupted) is None
        else "cited direction is licensed",
        ErrorGroup.STRUCTURAL),
    ErrorType.REDUNDANT_STEP: ErrorRow(
        lambda chain, k, p: k >= 2,
        lambda chain, k: [replace(step, index=k) for step in chain.steps[:k - 1]],
        lambda err, established: None if err.corrupted.conclusion in established
        else "conclusion was not already established",
        ErrorGroup.STRUCTURAL, length_shift=1),
    ErrorType.MISSING_PREREQUISITE: ErrorRow(
        lambda chain, k, p: 2 <= k < len(chain.steps) and _bridges_premise(chain, k),
        _drop_bridge,
        lambda err, established: _premise_still_established(err.corrupted, established),
        ErrorGroup.STRUCTURAL, length_shift=-1),
    ErrorType.CIRCULAR_REFERENCE: ErrorRow(
        lambda chain, k, p: k >= 2 and bool(_cycle_sites(chain, k)),
        _rewire_to_future, _cycle_problem, ErrorGroup.STRUCTURAL),
}


def applicable_errors(chain: CorrectChain, k: int) -> frozenset[ErrorType]:
    """Error types that apply at step k: the union of the rows."""
    return frozenset(e for e, row in ROWS.items() if row.applies(chain, k))


# ---------------------------------------------------------------------------
# injection


def inject(chain: CorrectChain, k: int, e: ErrorType, seed: int) -> ErroneousChain:
    """Corrupt step k of a synthesized chain with error type ``e``, one of
    its row's corruptions drawn by ``random.Random(seed)``, and rebuild the
    continuation under the corrupted state. ``build_instance``
    proves the chain with ``verify_chain`` before it stores the instance."""
    row = ROWS[e]
    if not row.applies(chain, k):
        raise InjectionInfeasible(f"{e.value} does not apply at step {k}")
    options = row.corruptions(chain, k)
    if not options:
        raise InjectionInfeasible(f"no {e.value} corruption at step {k}")
    corrupted = options[0] if len(options) == 1 else random.Random(seed).choice(options)
    if corrupted.content_equals(chain.steps[k - 1]):
        raise InjectionInfeasible("canonical corruption coincides with the correct step")
    corrupted_prefix = chain.steps[: k - 1] + (corrupted,)
    # an added step re-derives step k again; a dropped one skips its consumer
    rest = chain.steps[k - row.length_shift:]
    downstream = recompute_downstream(chain, corrupted_prefix, originals=rest)
    return ErroneousChain(corrupted_prefix + tuple(downstream), k, e)


def recompute_downstream(chain: CorrectChain, corrupted_prefix: Sequence[Step],
                         *, originals: Optional[Sequence[Step]] = None) -> list[Step]:
    """Re-derive the continuation under the state left by the corrupted prefix.

    Each remaining original step re-applies its rule toward the same target
    fact, with the first licensed pattern of that rule whose premises hold:
    those deriving the fact false, then those deriving it true, each in
    catalog order. Which one fires does not matter: two patterns of a
    template that conclude one slot with opposite values have premises that
    cannot hold together, so every pattern that fires derives the same
    literal. Recomputation is pattern application on the explicit state; the
    corrupted state may globally contradict the theory and no entailment is
    consulted.
    """
    if originals is None:
        originals = chain.steps[len(corrupted_prefix):]
    # one assignment, each fact's literal: the base facts, overwritten by the
    # prefix's conclusions
    known = {l.fact: l for l in chain.base_facts}
    for step in corrupted_prefix:
        known[step.conclusion.fact] = step.conclusion

    out: list[Step] = []
    next_index = len(corrupted_prefix) + 1
    for original in originals:
        rule = original.rule
        slots, target = rule.slots, original.conclusion.fact
        applied = next((p for value in (False, True)
                        for p in patterns_deriving(rule, Literal(target, value))
                        if all(known.get(slots[i]) == (slots[i], v) for i, v in p.premises)),
                       None)
        if applied is None:
            raise DownstreamStuck(f"no licensed pattern applies at original step "
                                  f"{original.index}")
        if target in known:
            raise DownstreamStuck(f"original step {original.index} re-derives an "
                                  f"assigned fact")
        derived = Literal(target, applied.derived[1])
        out.append(Step(next_index, known_supports(rule, target, known), rule, derived))
        known[target] = derived
        next_index += 1
    return out


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class InstanceReport:
    ok: bool
    failures: tuple[str, ...]

    def reason(self) -> str:
        return self.failures[0] if self.failures else "ok"


def _structural_predicate(inst: Instance, established: set[Literal]) -> Optional[str]:
    """The structural row's check of ``inst``: None when the corruption has
    its type's defect, else the reason it does not."""
    return ROWS[inst.error_type].check(inst.erroneous, established)


def verify_first_error(inst: Instance) -> InstanceReport:
    """Accept an instance only if the corruption is exactly where and what it
    claims: identical prefix, valid prefix steps, a step k that its row
    lists among the corruptions of the correct chain at k, established rule
    supports and a non-derivable conclusion (truth-state) or the matching
    structural defect, and the continuation ``recompute_downstream``
    derives under the corrupted state."""
    failures: list[str] = []
    chain, err = inst.correct, inst.erroneous
    k = inst.k

    if not 1 <= k <= len(err.steps):
        return InstanceReport(False, (f"k={k} out of range",))

    for t in range(k - 1):
        if t >= len(chain.steps) or not err.steps[t].content_equals(chain.steps[t]):
            failures.append(f"prefix differs from the correct chain at step {t + 1}")

    prefix = Prefix(chain.theory(), chain.base_facts)
    valid = prefix.replay(err.steps[:k - 1])
    if valid < k - 1:
        failures.append(f"prefix step {valid + 1} is not valid")
    else:
        row = ROWS[err.error_type]
        if row.group is ErrorGroup.STRUCTURAL:
            problem = row.check(err, prefix.established)
            if problem is not None:
                failures.append(f"structural predicate failed: {problem}")
        else:
            failures.extend(row.check(err, prefix))
        if not (k <= len(chain.steps) and row.applies(chain, k)
                and err.corrupted in row.corruptions(chain, k)):
            failures.append(f"step {k}: not a {err.error_type.value} corruption")
        try:
            continuation = recompute_downstream(
                chain, err.steps[:k], originals=chain.steps[k - row.length_shift:])
        except DownstreamStuck as exc:
            failures.append(f"continuation: {exc}")
        else:
            if tuple(continuation) != err.steps[k:]:
                failures.append("continuation differs from the one recomputed under "
                                "the corrupted state")

    if err.steps[-1].conclusion.fact != chain.goal.fact:
        failures.append("final step does not target the goal fact")

    return InstanceReport(not failures, tuple(failures))


def k_positions(chain_length: int, k_first: int, k_exclude_last: bool) -> list[int]:
    last = chain_length - 1 if k_exclude_last else chain_length
    return list(range(k_first, last + 1))
