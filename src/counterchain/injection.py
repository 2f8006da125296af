"""Corruption of verified chains at a controlled first-error position.

Eleven error types in two families. Truth-state types keep the chain shape
and replace step k's conclusion (or a cited support value) with the type's
canonical wrong output; they are verified by prefix non-derivability of the
corrupted conclusion. Structural types mutate the trajectory shape (direction
misuse, duplicate work, missing bridge facts, cyclic support) and may remain
locally truth-compatible, so each carries its own predicate.

After the corruption, every later step is re-derived by applying its rule's
licensed patterns to the explicit corrupted state, never by global entailment:
the corrupted state may contradict the theory, which is precisely what makes
the continuation a counterfactual. Instances whose continuation cannot be
re-derived are rejected.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Sequence

from .logic import FactId, Literal, Rule, RuleTemplate, TruthValue
from .prover import (
    Direction,
    Status,
    match_pattern,
    model_table,
    patterns_concluding_fact,
)
from .synthesis import (
    CorrectChain,
    Step,
    check_step_local,
    step_supports,
    topological_order,
)

if TYPE_CHECKING:  # pragma: no cover
    from .realize import ContextProfile


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

    @property
    def group(self) -> ErrorGroup:
        if self in (ErrorType.CONVERSE_ERROR, ErrorType.REDUNDANT_STEP,
                    ErrorType.MISSING_PREREQUISITE, ErrorType.CIRCULAR_REFERENCE):
            return ErrorGroup.STRUCTURAL
        return ErrorGroup.TRUTH_STATE


class InjectionInfeasible(ValueError):
    pass


class DownstreamStuck(ValueError):
    pass


@dataclass(frozen=True)
class ErroneousChain:
    steps: tuple[Step, ...]
    first_error_index: int
    error_type: ErrorType


@dataclass(frozen=True)
class Instance:
    id: str
    goal: Literal
    base_facts: tuple[Literal, ...]
    rules: tuple[Rule, ...]
    correct: CorrectChain
    erroneous: ErroneousChain
    seed: int = 0
    context: "ContextProfile | None" = None
    nl: Optional[dict] = None
    extras: dict = field(default_factory=dict)
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
# chain features consulted by applicability and injection


def _matched_pattern(step: Step):
    return match_pattern(step.rule, step.supports, step.conclusion)


def _cited_rules(chain: CorrectChain) -> set[Rule]:
    return {s.rule for s in chain.steps}


def spare_implications(chain: CorrectChain) -> tuple[Rule, ...]:
    """IMPL rules present in the theory but cited by no step."""
    cited = _cited_rules(chain)
    return tuple(r for r in chain.rules
                 if r.template is RuleTemplate.IMPL and r not in cited)


def _established_literals(chain: CorrectChain, upto: int) -> set[Literal]:
    """Base facts plus conclusions of steps before 1-based position ``upto``."""
    out = set(chain.base_facts)
    for step in chain.steps[: upto - 1]:
        out.add(step.conclusion)
    return out


def _vacuous_hooks(chain: CorrectChain, k: int) -> list[Rule]:
    """Unused implications with a false antecedent and a true consequent,
    both established before k."""
    established = _established_literals(chain, k)
    out = []
    for rule in spare_implications(chain):
        a, b = rule.facts()
        if Literal(a, False) in established and Literal(b, True) in established:
            out.append(rule)
    return out


def _converse_hooks(chain: CorrectChain, k: int) -> list[Rule]:
    """Unused implications whose consequent is established true before k and
    whose antecedent is still unassigned there."""
    established = _established_literals(chain, k)
    assigned = {l.fact for l in established}
    out = []
    for rule in spare_implications(chain):
        a, b = rule.facts()
        if Literal(b, True) in established and a not in assigned:
            out.append(rule)
    return out


def _cycle_sites(chain: CorrectChain, k: int) -> list[tuple[int, Literal]]:
    """Later steps j that consume step k's conclusion while concluding a fact
    the step-k rule mentions in an unassigned slot; rewiring k to cite that
    conclusion makes k and j support each other."""
    step = chain.steps[k - 1]
    open_slots = (set(step.rule.facts()) - step.support_facts()
                  - {step.conclusion.fact})
    if not open_slots:
        return []
    sites = []
    for j in range(k + 1, len(chain.steps) + 1):
        later = chain.steps[j - 1]
        if step.conclusion in later.supports and later.conclusion.fact in open_slots:
            sites.append((j, later.conclusion))
    return sites


def applicable_errors(chain: CorrectChain, k: int) -> set[ErrorType]:
    """Error types whose template requirements match step k."""
    if not 1 <= k <= len(chain.steps):
        raise IndexError(f"k={k} outside 1..{len(chain.steps)}")
    step = chain.steps[k - 1]
    pattern = _matched_pattern(step)
    if pattern is None:
        return set()
    template = step.rule.template
    forward = pattern.direction is Direction.FORWARD
    out: set[ErrorType] = set()

    if template is RuleTemplate.IMPL:
        out.add(ErrorType.IMPLICATION_MISUSE)
        out.add(ErrorType.CONVERSE_ERROR)
    if template is RuleTemplate.XOR_BARE:
        out.add(ErrorType.XOR_AS_EQUIV)
        if pattern.premises[0][1]:
            out.add(ErrorType.XOR_AS_OR)
    if template is RuleTemplate.XOR_ANTE:
        out.add(ErrorType.XOR_AS_EQUIV)
        if not forward and pattern.derived[1]:
            out.add(ErrorType.XOR_AS_OR)
    if template in (RuleTemplate.AND_CONS, RuleTemplate.AND_ANTE) and not forward:
        out.add(ErrorType.DROP_CONDITION)
    if template in (RuleTemplate.AND_CONS, RuleTemplate.AND_ANTE,
                    RuleTemplate.OR_CONS, RuleTemplate.OR_ANTE) and forward:
        out.add(ErrorType.PARTIAL_EVALUATION)
    if (template is RuleTemplate.OR_CONS and forward) or \
            (template is RuleTemplate.AND_ANTE and not forward):
        out.add(ErrorType.OR_AND_CONFUSION)
    if _vacuous_hooks(chain, k):
        out.add(ErrorType.VACUOUS_TRUTH_ERROR)
    if _converse_hooks(chain, k):
        out.add(ErrorType.CONVERSE_ERROR)
    if k >= 2:
        out.add(ErrorType.REDUNDANT_STEP)
        if k < len(chain.steps) and _bridges_premise(chain.steps[k - 1], chain.steps[k]):
            out.add(ErrorType.MISSING_PREREQUISITE)
        if _cycle_sites(chain, k):
            out.add(ErrorType.CIRCULAR_REFERENCE)
    return out


def _bridges_premise(bridge: Step, consumer: Step) -> bool:
    """The bridge conclusion must be a premise of the consumer's applied
    pattern, not merely an extra listed support; otherwise dropping it leaves
    a step that is still fully licensed."""
    pattern = _matched_pattern(consumer)
    if pattern is None:
        return False
    return bridge.conclusion in pattern.bind_premises(consumer.rule)


# ---------------------------------------------------------------------------
# injection


def _reordered_supports(rule: Rule, values: dict[FactId, bool],
                        conclusion_fact: FactId) -> tuple[Literal, ...]:
    return tuple(Literal(f, values[f]) for f in rule.facts()
                 if f != conclusion_fact and f in values)


def _flip_step(step: Step) -> Step:
    return replace(step, conclusion=step.conclusion.negated())


def inject(chain: CorrectChain, k: int, e: ErrorType, seed: int) -> ErroneousChain:
    """Corrupt step k of a verified chain with error type ``e`` and rebuild
    the continuation under the corrupted state."""
    if e not in applicable_errors(chain, k):
        raise InjectionInfeasible(f"{e.value} does not apply at step {k}")
    rng = random.Random(seed)
    step = chain.steps[k - 1]
    pattern = _matched_pattern(step)
    prefix = chain.steps[: k - 1]
    rest = chain.steps[k:]

    if e in (ErrorType.IMPLICATION_MISUSE, ErrorType.XOR_AS_EQUIV,
             ErrorType.XOR_AS_OR, ErrorType.DROP_CONDITION,
             ErrorType.PARTIAL_EVALUATION):
        corrupted = _flip_step(step)

    elif e is ErrorType.OR_AND_CONFUSION:
        # read the connective as its dual: conclude the negation of the
        # established premise the dual reading would force
        if step.rule.template is RuleTemplate.OR_CONS:
            slot_fact = step.rule.facts()[1]          # the false disjunct
            wrong = Literal(slot_fact, True)
        else:                                         # AND_ANTE backward
            slot_fact = step.rule.facts()[0]          # the true conjunct
            wrong = Literal(slot_fact, False)
        values = {l.fact: l.value for l in step.supports if l.fact != slot_fact}
        corrupted = Step(k, _reordered_supports(step.rule, values, slot_fact),
                         step.rule, wrong)

    elif e is ErrorType.VACUOUS_TRUTH_ERROR:
        hook = rng.choice(_vacuous_hooks(chain, k))
        a, b = hook.facts()
        corrupted = Step(k, (Literal(a, False),), hook, Literal(b, False))

    elif e is ErrorType.CONVERSE_ERROR:
        hooks = _converse_hooks(chain, k)
        if hooks:
            hook = rng.choice(hooks)
            a, b = hook.facts()
            corrupted = Step(k, (Literal(b, True),), hook, Literal(a, True))
        else:
            # in-place converse of the step's own implication
            a, b = step.rule.facts()
            if pattern.direction is Direction.FORWARD:
                corrupted = Step(k, (Literal(b, True),), step.rule, Literal(a, True))
            else:
                corrupted = Step(k, (Literal(a, False),), step.rule, Literal(b, False))

    elif e is ErrorType.REDUNDANT_STEP:
        source = chain.steps[rng.randrange(k - 1)]
        corrupted = replace(source, index=k)
        rest = chain.steps[k - 1:]

    elif e is ErrorType.MISSING_PREREQUISITE:
        bridge = step
        consumer = chain.steps[k]
        kept = tuple(l for l in consumer.supports if l != bridge.conclusion)
        corrupted = Step(k, kept, consumer.rule, consumer.conclusion)
        rest = chain.steps[k + 1:]

    else:  # CIRCULAR_REFERENCE
        j, future = rng.choice(_cycle_sites(chain, k))
        values = {l.fact: l.value for l in step.supports}
        values[future.fact] = future.value
        corrupted = Step(k, _reordered_supports(step.rule, values, step.conclusion.fact),
                         step.rule, step.conclusion)

    if corrupted.content_equals(step):
        raise InjectionInfeasible("canonical corruption coincides with the correct step")

    corrupted_prefix = prefix + (corrupted,)
    downstream = recompute_downstream(chain, corrupted_prefix, originals=rest)
    return ErroneousChain(corrupted_prefix + tuple(downstream), k, e)


def recompute_downstream(chain: CorrectChain, corrupted_prefix: Sequence[Step],
                         *, originals: Optional[Sequence[Step]] = None) -> list[Step]:
    """Re-derive the continuation under the state left by the corrupted prefix.

    Each remaining original step re-applies its rule toward the same target
    fact: first the licensed pattern it originally used, then any other
    licensed pattern of that rule concluding the same fact. Recomputation is
    pattern application on the explicit state; the corrupted state may
    globally contradict the theory and no entailment is consulted.
    """
    if originals is None:
        originals = chain.steps[len(corrupted_prefix):]
    state = chain.base_state().with_literals(
        (step.conclusion for step in corrupted_prefix), overwrite=True)

    out: list[Step] = []
    next_index = len(corrupted_prefix) + 1
    for original in originals:
        rule = original.rule
        target = original.conclusion.fact
        candidates = list(patterns_concluding_fact(rule, target))
        original_pattern = _matched_pattern(original)
        if original_pattern in candidates:
            candidates.remove(original_pattern)
            candidates.insert(0, original_pattern)
        applied = None
        for pattern in candidates:
            if all(state.holds(p) for p in pattern.bind_premises(rule)):
                applied = pattern
                break
        if applied is None:
            raise DownstreamStuck(f"no licensed pattern applies at original step "
                                  f"{original.index}")
        derived = applied.bind_derived(rule)
        if state.value_of(derived.fact) is not TruthValue.UNKNOWN:
            raise DownstreamStuck(f"original step {original.index} re-derives an "
                                  f"assigned fact")
        supports = step_supports(rule, target, state)
        out.append(Step(next_index, supports, rule, derived))
        state = state.with_literal(derived)
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
    chain = inst.erroneous
    step = chain.steps[inst.k - 1]
    e = inst.error_type

    if e is ErrorType.CONVERSE_ERROR:
        if match_pattern(step.rule, step.supports, step.conclusion) is not None:
            return "cited direction is licensed"
        return None
    if e is ErrorType.REDUNDANT_STEP:
        if step.conclusion not in established:
            return "conclusion was not already established"
        return None
    if e is ErrorType.MISSING_PREREQUISITE:
        if any(l not in established for l in step.supports):
            return None
        patterns = [p for p in patterns_concluding_fact(step.rule, step.conclusion.fact)
                    if p.derived[1] == step.conclusion.value]
        if not patterns:
            return "no pattern can conclude the corrupted step's literal"
        if all(any(p not in established for p in pat.bind_premises(step.rule))
               for pat in patterns):
            return None
        return "every required premise is established"
    # CIRCULAR_REFERENCE
    try:
        topological_order(chain.steps)
    except ValueError:
        return None
    return "no dependency cycle"


def verify_first_error(inst: Instance) -> InstanceReport:
    """Accept an instance only if the corruption is exactly where and what it
    claims: identical prefix, valid prefix steps, non-derivable corrupted
    conclusion (truth-state) or the matching structural defect, and a
    continuation that stays pattern-coherent under the corrupted state."""
    failures: list[str] = []
    chain, err = inst.correct, inst.erroneous
    k = inst.k
    theory = inst.correct.theory()

    if not 1 <= k <= len(err.steps):
        return InstanceReport(False, (f"k={k} out of range",))

    for t in range(k - 1):
        if not err.steps[t].content_equals(chain.steps[t]):
            failures.append(f"prefix differs from the correct chain at step {t + 1}")

    table = model_table(theory)
    state = chain.base_state()
    rows = table.restrict_state(state)
    established = set(chain.base_facts)
    prefix_ok = True
    for t in range(k - 1):
        step = err.steps[t]
        check = check_step_local(table, rows, state, established, step)
        if not check.ok:
            failures.append(f"prefix step {t + 1} is not valid")
            prefix_ok = False
            break
        state = state.with_literal(step.conclusion)
        established.add(step.conclusion)
        rows = table.restrict(rows, step.conclusion)

    corrupted = err.steps[k - 1]
    if prefix_ok:
        if err.error_type.group is ErrorGroup.TRUTH_STATE:
            verdict = table.decide(rows, corrupted.conclusion)
            if verdict.status is Status.ENTAILED:
                failures.append("still-derivable")
            elif verdict.status is Status.INCONSISTENT:
                failures.append("prefix state inconsistent with the theory")
        else:
            problem = _structural_predicate(inst, established)
            if problem is not None:
                failures.append(f"structural predicate failed: {problem}")

        # continuation: pattern application over the explicit corrupted state
        cf_state = state
        if not cf_state.holds(corrupted.conclusion):
            cf_state = cf_state.with_literal(corrupted.conclusion, overwrite=True)
        for t in range(k, len(err.steps)):
            step = err.steps[t]
            if any(not cf_state.holds(l) for l in step.supports):
                failures.append(f"step {t + 1}: support disagrees with the "
                                f"corrupted state")
                break
            if match_pattern(step.rule, step.supports, step.conclusion) is None:
                failures.append(f"step {t + 1}: no licensed pattern under the "
                                f"corrupted state")
                break
            if cf_state.value_of(step.conclusion.fact) is not TruthValue.UNKNOWN:
                failures.append(f"step {t + 1}: re-concludes an assigned fact")
                break
            cf_state = cf_state.with_literal(step.conclusion)

    if err.steps[-1].conclusion.fact != inst.goal.fact:
        failures.append("final step does not target the goal fact")

    return InstanceReport(not failures, tuple(failures))


def k_positions(chain_length: int, k_first: int, k_exclude_last: bool) -> list[int]:
    last = chain_length - 1 if k_exclude_last else chain_length
    return list(range(k_first, last + 1))
