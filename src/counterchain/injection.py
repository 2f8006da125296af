"""Corruption of verified chains at a controlled first-error position.

Eleven error types in two families. Truth-state types keep the chain shape
and replace step k's conclusion (or a cited support value) with the type's
canonical wrong output; they are verified by prefix non-derivability of the
corrupted conclusion, whose supports must be established facts of its rule.
Structural types mutate the trajectory shape (direction misuse, duplicate
work, missing bridge facts, cyclic support) and may remain locally
truth-compatible, so each carries its own predicate.

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

from .logic import Literal, Rule, RuleTemplate, State, TruthValue
from .prover import (
    Direction,
    InferencePattern,
    Status,
    match_pattern,
    patterns_concluding_fact,
)
from .synthesis import (
    CorrectChain,
    Prefix,
    Step,
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

    __hash__ = object.__hash__  # identity hash in C, as for ``RuleTemplate``

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
# the site index: what applicability and injection consult, once per chain


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


@dataclass(frozen=True)
class Site:
    """Step k of a chain as a corruption site. The hooks are the spare
    implications A -> B with A established false and B true before k
    (vacuous), or B established true and A unassigned (converse); the cycle
    sites are the later steps (j, conclusion) that consume step k's
    conclusion while concluding a fact in an unassigned slot of its rule.
    Hooks keep ``chain.rules`` order and cycle sites ascending j, because
    ``inject`` draws from them by position."""

    pattern: Optional[InferencePattern]
    types: frozenset[ErrorType]
    vacuous_hooks: tuple[Rule, ...]
    converse_hooks: tuple[Rule, ...]
    cycle_sites: tuple[tuple[int, Literal], ...]


def site_index(chain: CorrectChain) -> tuple[Site, ...]:
    """One ``Site`` per step, built on first use and kept in the frozen
    chain's ``__dict__``: outside its fields, so no lookup hashes the chain."""
    sites = chain.__dict__.get("_site_index")
    if sites is None:
        sites = chain.__dict__["_site_index"] = _index_sites(chain)
    return sites


def _index_sites(chain: CorrectChain) -> tuple[Site, ...]:
    steps = chain.steps
    patterns = [match_pattern(s.rule, s.supports, s.conclusion) for s in steps]
    # each spare implication A -> B with the literals its hook tests read
    spare = [(r, Literal(r.slots[0], False), Literal(r.slots[1], True), r.slots[0])
             for r in spare_implications(chain)]
    established = set(chain.base_facts)
    assigned = {l.fact for l in established}
    sites = []
    for k, (step, pattern) in enumerate(zip(steps, patterns), 1):
        if k >= 2:
            established.add(steps[k - 2].conclusion)
            assigned.add(steps[k - 2].conclusion.fact)
        vacuous = tuple(r for r, a_false, b_true, _ in spare
                        if a_false in established and b_true in established)
        converse = tuple(r for r, _, b_true, a in spare
                         if b_true in established and a not in assigned)
        open_slots = (set(step.rule.slots) - step.support_facts()
                      - {step.conclusion.fact})
        cycles = tuple((j, later.conclusion) for j, later in enumerate(steps[k:], k + 1)
                       if later.conclusion.fact in open_slots
                       and step.conclusion in later.supports)

        types: set[ErrorType] = set()
        if pattern is not None:
            types = _template_errors(step.rule.template, pattern)
            if vacuous:
                types.add(ErrorType.VACUOUS_TRUTH_ERROR)
            if converse:
                types.add(ErrorType.CONVERSE_ERROR)
            if k >= 2:
                types.add(ErrorType.REDUNDANT_STEP)
                # dropping the bridge must remove a premise of the consumer's
                # applied pattern, not merely an extra listed support
                consumer = patterns[k] if k < len(steps) else None
                if consumer is not None and \
                        step.conclusion in consumer.bind_premises(steps[k].rule):
                    types.add(ErrorType.MISSING_PREREQUISITE)
                if cycles:
                    types.add(ErrorType.CIRCULAR_REFERENCE)
        sites.append(Site(pattern, frozenset(types), vacuous, converse, cycles))
    return tuple(sites)


def _template_errors(template: RuleTemplate, pattern: InferencePattern) -> set[ErrorType]:
    """Error types the step's template and applied direction admit."""
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
    return out


def _site(chain: CorrectChain, k: int) -> Site:
    if not 1 <= k <= len(chain.steps):
        raise IndexError(f"k={k} outside 1..{len(chain.steps)}")
    return site_index(chain)[k - 1]


def applicable_errors(chain: CorrectChain, k: int) -> frozenset[ErrorType]:
    """Error types whose template requirements match step k."""
    return _site(chain, k).types


# ---------------------------------------------------------------------------
# injection


def inject(chain: CorrectChain, k: int, e: ErrorType, seed: int) -> ErroneousChain:
    """Corrupt step k of a synthesized chain with error type ``e`` and
    rebuild the continuation under the corrupted state. ``build_instance``
    proves the chain with ``verify_chain`` before it stores the instance."""
    site = _site(chain, k)
    if e not in site.types:
        raise InjectionInfeasible(f"{e.value} does not apply at step {k}")
    rng = random.Random(seed)
    step = chain.steps[k - 1]
    prefix = chain.steps[: k - 1]
    rest = chain.steps[k:]

    if e in (ErrorType.IMPLICATION_MISUSE, ErrorType.XOR_AS_EQUIV,
             ErrorType.XOR_AS_OR, ErrorType.DROP_CONDITION,
             ErrorType.PARTIAL_EVALUATION):
        corrupted = replace(step, conclusion=step.conclusion.negated())

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
        corrupted = Step(k, step_supports(step.rule, slot_fact, State(values)),
                         step.rule, wrong)

    elif e is ErrorType.VACUOUS_TRUTH_ERROR:
        hook = rng.choice(site.vacuous_hooks)
        a, b = hook.facts()
        corrupted = Step(k, (Literal(a, False),), hook, Literal(b, False))

    elif e is ErrorType.CONVERSE_ERROR:
        if site.converse_hooks:
            hook = rng.choice(site.converse_hooks)
            a, b = hook.facts()
            corrupted = Step(k, (Literal(b, True),), hook, Literal(a, True))
        else:
            # in-place converse of the step's own implication
            a, b = step.rule.facts()
            if site.pattern.direction is Direction.FORWARD:
                corrupted = Step(k, (Literal(b, True),), step.rule, Literal(a, True))
            else:
                corrupted = Step(k, (Literal(a, False),), step.rule, Literal(b, False))

    elif e is ErrorType.REDUNDANT_STEP:
        source = chain.steps[rng.randrange(k - 1)]
        corrupted = replace(source, index=k)
        rest = chain.steps[k - 1:]

    elif e is ErrorType.MISSING_PREREQUISITE:
        consumer = chain.steps[k]
        kept = tuple(l for l in consumer.supports if l != step.conclusion)
        corrupted = Step(k, kept, consumer.rule, consumer.conclusion)
        rest = chain.steps[k + 1:]

    else:  # CIRCULAR_REFERENCE
        j, future = rng.choice(site.cycle_sites)
        values = {l.fact: l.value for l in step.supports}
        values[future.fact] = future.value
        corrupted = Step(k, step_supports(step.rule, step.conclusion.fact, State(values)),
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
        used = match_pattern(rule, original.supports, original.conclusion)
        # the originally used pattern first, the others in catalog order
        candidates = sorted(patterns_concluding_fact(rule, target), key=lambda p: p != used)
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


def _truth_state_problems(step: Step, prefix: Prefix) -> list[str]:
    """A truth-state corruption keeps a sound step's supports, established
    facts of its rule other than the concluded one, and concludes what the
    prefix does not entail."""
    problems = []
    if not step.supports:
        problems.append("corrupted step cites no support")
    elif not prefix.established.issuperset(step.supports):
        problems.append("corrupted step cites a support not established")
    elif not step.support_facts() <= set(step.rule.facts()) - {step.conclusion.fact}:
        problems.append("corrupted step cites a support outside its rule")
    if step.conclusion.fact not in prefix.table.columns:
        problems.append("corrupted conclusion is outside the theory's universe")
    else:
        verdict = prefix.table.decide(prefix.rows, step.conclusion)
        if verdict.status is Status.ENTAILED:
            problems.append("still-derivable")
        elif verdict.status is Status.INCONSISTENT:
            problems.append("prefix state inconsistent with the theory")
    return problems


def verify_first_error(inst: Instance) -> InstanceReport:
    """Accept an instance only if the corruption is exactly where and what it
    claims: identical prefix, valid prefix steps, established rule supports
    and a non-derivable conclusion (truth-state) or the matching structural
    defect, and a continuation that stays pattern-coherent under the
    corrupted state."""
    failures: list[str] = []
    chain, err = inst.correct, inst.erroneous
    k = inst.k
    theory = inst.correct.theory()

    if not 1 <= k <= len(err.steps):
        return InstanceReport(False, (f"k={k} out of range",))

    for t in range(k - 1):
        if t >= len(chain.steps) or not err.steps[t].content_equals(chain.steps[t]):
            failures.append(f"prefix differs from the correct chain at step {t + 1}")

    prefix = Prefix(theory, chain.base_facts)
    valid = prefix.replay(err.steps[:k - 1])
    if valid < k - 1:
        failures.append(f"prefix step {valid + 1} is not valid")
    else:
        corrupted = err.steps[k - 1]
        if err.error_type.group is ErrorGroup.STRUCTURAL:
            problem = _structural_predicate(inst, prefix.established)
            if problem is not None:
                failures.append(f"structural predicate failed: {problem}")
        else:
            failures.extend(_truth_state_problems(corrupted, prefix))

        # continuation: pattern application over the explicit corrupted state
        cf_state = prefix.state
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
