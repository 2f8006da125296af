"""Correct-chain synthesis: backward goal expansion, then forward verification.

A chain grows from the target literal: pick a rule template and a sound
derivation direction that concludes it, turn that direction's premises into
subgoals, and recurse until the step budget is spent; open subgoals become
base facts. Emission is post-order, so every support is established before
its step runs. On top of the goal tree the generator weaves in:

  * side steps deriving fresh facts that nothing downstream consumes, drawn
    from ``_SIDE_ROWS``, a table of catalog patterns and the pools that fill them,
  * spare implication rules the chain never cites but the theory carries,
  * rules whose unused slot is bound to the conclusion of the step that will
    consume this step's own conclusion (sites for cyclic rewiring).

Synthesis itself proves nothing: ``dataset.build_instance`` runs
``verify_chain`` once, on the chain it stores, so no prover work goes to the
candidates that are drawn and then discarded.

The inner loops run on plain values: one dict maps each fact of a walk's
assignment to its literal, as in ``Prefix``; the shapes and side-step rows are
unpacked at import; and each weighted draw or two-item shuffle takes exactly
the RNG draws ``Random.choices`` or ``Random.shuffle`` would take, so a chain
is the same function of its seed.
"""

from __future__ import annotations

import bisect
import collections
import functools
import heapq
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .logic import (TEMPLATES, FactId, Literal, Rule, RuleTemplate, State,
                    assign_literal)
from .prover import (
    _CATALOG,
    UNIVERSE_CAP,
    InferencePattern,
    Theory,
    match_pattern,
    model_table,
    theory_for,
)


class SynthesisExhausted(RuntimeError):
    pass


@dataclass(frozen=True)
class Step:
    """One inference: supporting facts, an applied rule, and a conclusion.

    Supports list every rule fact whose value is known when the step runs,
    except the concluded fact itself; the applied pattern's premises are
    always among them.
    """

    index: int
    supports: tuple[Literal, ...]
    rule: Rule
    conclusion: Literal

    def __init__(self, index: int, supports: tuple[Literal, ...], rule: Rule,
                 conclusion: Literal):
        # the generated ``__init__`` of a frozen dataclass sets each field
        # through ``object.__setattr__``, several times slower than filling
        # the instance dict; equality, hashing and ``replace`` are unchanged
        self.__dict__.update(index=index, supports=supports, rule=rule,
                             conclusion=conclusion)

    def support_facts(self) -> frozenset[FactId]:
        return frozenset(l.fact for l in self.supports)

    def content_equals(self, other: "Step") -> bool:
        """Structural equality ignoring position."""
        return (self.supports == other.supports and self.rule == other.rule
                and self.conclusion == other.conclusion)


@dataclass(frozen=True)
class CorrectChain:
    base_facts: tuple[Literal, ...]
    rules: tuple[Rule, ...]
    steps: tuple[Step, ...]
    goal: Literal

    def theory(self) -> Theory:
        return self._theory

    @functools.cached_property
    def _theory(self) -> Theory:
        # the chain is frozen, so its theory is computed once; the cache sits
        # in the instance ``__dict__``, outside the fields that equality and
        # hashing read
        facts = {l.fact for l in self.base_facts} | {self.goal.fact}
        for step in self.steps:
            facts.add(step.conclusion.fact)
            facts.update(step.support_facts())
        return theory_for(self.rules, facts)

    def established_before(self, index: int) -> set[Literal]:
        """Base facts plus conclusions of steps before 1-based ``index``; a
        fact stated with both values keeps both literals."""
        return {*self.base_facts, *(step.conclusion for step in self.steps[:index - 1])}

    def state_before(self, index: int) -> State:
        """``established_before`` as a ``State``, which refuses a flip."""
        return State().with_literals(self.established_before(index))

    def base_state(self) -> State:
        return self.state_before(1)


def step_supports(rule: Rule, conclusion_fact: FactId, state: State) -> tuple[Literal, ...]:
    """Known rule facts, in slot order, excluding the concluded fact."""
    return known_supports(rule, conclusion_fact, {l.fact: l for l in state.literals()})


def known_supports(rule: Rule, conclusion_fact: FactId,
                   known: Mapping[FactId, Literal]) -> tuple[Literal, ...]:
    """``step_supports`` over ``known``, which maps each assigned fact to its literal."""
    return tuple([known[f] for f in rule.slots if f != conclusion_fact and f in known])


def _draw(rng: random.Random, cum_weights: Sequence[float]) -> int:
    """The index ``rng.choices(range(n), cum_weights=cum_weights)`` picks:
    ``Random.choices``' own arithmetic on one ``rng.random()``, so the same
    index and the same RNG state, without the population or the result list."""
    return bisect.bisect(cum_weights, rng.random() * (cum_weights[-1] + 0.0),
                         0, len(cum_weights) - 1)


def _swaps_two(rng: random.Random) -> bool:
    """Whether ``rng.shuffle`` of a two-item list would swap it: the one draw
    it makes, ``_randbelow(2)``, is 0."""
    return rng._randbelow(2) == 0


@dataclass(frozen=True)
class SynthesisConfig:
    step_count: tuple[int, int] = (7, 10)
    template_weights: tuple[tuple[RuleTemplate, float], ...] = (
        (RuleTemplate.IMPL, 2.0),
        (RuleTemplate.AND_ANTE, 2.0),
        (RuleTemplate.AND_CONS, 2.0),
        (RuleTemplate.OR_ANTE, 2.0),
        (RuleTemplate.OR_CONS, 2.0),
        (RuleTemplate.XOR_ANTE, 2.0),
        (RuleTemplate.XOR_BARE, 3.0),
    )
    max_facts: int = 16
    max_attempts: int = 64
    p_fresh: float = 0.7
    min_useful_steps: int = 3
    side_steps: tuple[int, int] = (1, 3)
    spare_impl_rules: int = 2
    p_cycle_slot: float = 0.5
    distractor_rules: int = 0

    def __post_init__(self):
        lo, hi = self.step_count
        if not (3 <= lo <= hi <= 12):
            raise ValueError("step_count range must lie within [3, 12]")
        if self.max_facts > UNIVERSE_CAP:
            raise ValueError(f"max_facts {self.max_facts} exceeds the universe "
                             f"cap {UNIVERSE_CAP}")
        weights = [w for _, w in self.template_weights]
        if not (all(0 <= w < math.inf for w in weights) and any(w > 0 for w in weights)):
            raise ValueError("template weights must be finite, non-negative and not all zero")
        if not 0 <= self.side_steps[0] <= self.side_steps[1]:
            raise ValueError(f"side_steps {self.side_steps}: the minimum must be "
                             f"non-negative and at most the maximum")
        for name in ("p_fresh", "p_cycle_slot"):
            if not 0.0 <= getattr(self, name) <= 1.0:  # NaN fails this too
                raise ValueError(f"{name} {getattr(self, name)} must lie within [0, 1]")
        for name in ("max_facts", "max_attempts", "min_useful_steps", "spare_impl_rules",
                     "distractor_rules"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} {getattr(self, name)} is negative")

    @functools.cached_property
    def shape_pools(self) -> dict[bool, tuple[tuple["_Shape", ...], list[float]]]:
        """Per concluded value: the goal-expansion shapes whose template has
        positive weight, in catalog order, and their cumulative weights. Every
        template concludes both values, so neither pool is empty."""
        weights = dict(self.template_weights)
        pools = {}
        for value, shapes in ((True, _SHAPES_TRUE), (False, _SHAPES_FALSE)):
            pool = tuple(_Shape.of(s) for s in shapes
                         if weights.get(s.template, 0.0) > 0.0)
            pools[value] = (pool, list(itertools.accumulate(weights[s.template]
                                                            for s in pool)))
        return pools


def _pick(*choices: tuple[RuleTemplate, int]) -> tuple[InferencePattern, ...]:
    return tuple(_CATALOG[template][i] for template, i in choices)


class _Shape(NamedTuple):
    """A goal-expansion direction unpacked for ``expand``: ``passive`` lists
    the slots that are neither premise nor derived, and ``forced`` the value
    a fact bound there must intend, if the rule constrains it."""

    template: RuleTemplate
    arity: int
    derived_slot: int
    premises: tuple[tuple[int, bool], ...]
    passive: tuple[int, ...]
    forced: Optional[bool]

    @classmethod
    def of(cls, pattern: InferencePattern) -> "_Shape":
        template, (slot, value) = pattern.template, pattern.derived
        arity = TEMPLATES[template][0]
        premise_slots = {s for s, _ in pattern.premises}
        # ``expand`` draws a premise order as a shuffle of at most two
        assert len(premise_slots) == len(pattern.premises) <= 2
        forced = (True if template is RuleTemplate.AND_CONS and value else
                  False if template is RuleTemplate.OR_ANTE and not value else None)
        passive = tuple(s for s in range(arity) if s != slot and s not in premise_slots)
        return cls(template, arity, slot, pattern.premises, passive, forced)


# the derivation directions goal expansion draws from, by concluded value
_SHAPES_TRUE = _pick(
    (RuleTemplate.IMPL, 0),      # A=T => B=T
    (RuleTemplate.XOR_BARE, 1),  # A=F => B=T
    (RuleTemplate.AND_ANTE, 0),  # A=T, B=T => C=T
    (RuleTemplate.AND_CONS, 0),  # A=T => B=T
    (RuleTemplate.OR_ANTE, 0),   # A=T => C=T
    (RuleTemplate.OR_CONS, 0),   # A=T, B=F => C=T
    (RuleTemplate.XOR_ANTE, 2),  # C=F, B=T => A=T
    (RuleTemplate.XOR_ANTE, 0),  # A=T, B=F => C=T
)

_SHAPES_FALSE = _pick(
    (RuleTemplate.IMPL, 1),      # B=F => A=F
    (RuleTemplate.XOR_BARE, 0),  # A=T => B=F
    (RuleTemplate.AND_ANTE, 1),  # C=F, A=T => B=F
    (RuleTemplate.AND_CONS, 2),  # B=F => A=F
    (RuleTemplate.OR_ANTE, 2),   # C=F => A=F
    (RuleTemplate.OR_CONS, 2),   # B=F, C=F => A=F
    (RuleTemplate.XOR_ANTE, 3),  # C=F, B=F => A=F
)

# the pools a side-step slot is drawn from: the true facts, the false facts,
# the "retired" true or false facts that no later step mentions (all facts of
# that value when none is), all known facts, and two pools that lean to a true
# fact, whose corruption sites are scarcer: the false or all known facts, but a
# true fact with p 0.7 (always when the pool has none left)
_TRUE, _FALSE, _RETIRED_TRUE, _RETIRED_FALSE, _ANY, _TRUE_OR_FALSE, _TRUE_OR_ANY = range(7)


@dataclass
class _SideRow:
    """A side step: a fresh fact fills the derived slot of ``patterns``, and
    the other slots are drawn from known facts, never one twice, in the order
    and from the pools that ``draws`` lists as (slot, pool). ``derived`` maps
    premise values to the (slot, value) their pattern derives."""

    weight: float
    patterns: tuple[InferencePattern, ...]
    draws: tuple[tuple[int, int], ...]
    derived: dict[tuple[bool, ...], tuple[int, bool]] = field(init=False)
    # unpacked for ``_side_step``: the template, its arity, the premise slots,
    # and per draw (slot, pool, whether the pool leans to a true fact)
    template: RuleTemplate = field(init=False)
    arity: int = field(init=False)
    premise_slots: tuple[int, ...] = field(init=False)
    plan: tuple[tuple[int, int, bool], ...] = field(init=False)

    def __post_init__(self):
        # a row's patterns share their premise slots
        self.derived = {tuple(v for _, v in p.premises): p.derived for p in self.patterns}
        self.template = self.patterns[0].template
        self.arity = TEMPLATES[self.template][0]
        self.premise_slots = tuple(s for s, _ in self.patterns[0].premises)
        self.plan = tuple((slot, pool, pool in (_TRUE_OR_FALSE, _TRUE_OR_ANY))
                          for slot, pool in self.draws)


# the side steps; weights favour shapes that admit the scarcer corruption kinds
_SIDE_ROWS = (
    _SideRow(3.0, _pick((RuleTemplate.XOR_BARE, 0), (RuleTemplate.XOR_BARE, 1)),
             ((0, _TRUE_OR_FALSE),)),
    _SideRow(2.0, _pick((RuleTemplate.XOR_ANTE, 2), (RuleTemplate.XOR_ANTE, 3)),
             ((2, _FALSE), (1, _TRUE_OR_ANY))),
    _SideRow(2.5, _pick((RuleTemplate.OR_CONS, 0)), ((0, _TRUE), (1, _RETIRED_FALSE))),
    _SideRow(2.0, _pick((RuleTemplate.AND_ANTE, 1)), ((0, _RETIRED_TRUE), (2, _FALSE))),
    _SideRow(1.5, _pick((RuleTemplate.AND_CONS, 2)), ((1, _FALSE), (2, _ANY))),
    _SideRow(1.5, _pick((RuleTemplate.IMPL, 0)), ((0, _TRUE),)),
    _SideRow(1.0, _pick((RuleTemplate.IMPL, 1)), ((1, _FALSE),)),
    _SideRow(1.0, _pick((RuleTemplate.AND_CONS, 0)), ((0, _TRUE), (2, _TRUE))),
    _SideRow(1.0, _pick((RuleTemplate.OR_ANTE, 0)), ((0, _TRUE), (1, _ANY))),
    _SideRow(1.0, _pick((RuleTemplate.XOR_ANTE, 0)), ((0, _TRUE), (1, _FALSE))),
)


def _feasible_rows(t: bool, f: bool) -> tuple[tuple[_SideRow, ...], list[float]]:
    rows = tuple(row for row in _SIDE_ROWS
                 if all((t, f, t, f, True, True, True)[pool] for _, pool in row.draws))
    return rows, list(itertools.accumulate(row.weight for row in rows))


# per (a fact is true, a fact is false): the rows whose every pool has a fact,
# and their cumulative weights
_FEASIBLE_SIDE_ROWS = {(t, f): _feasible_rows(t, f)
                       for t, f in ((True, False), (False, True), (True, True))}


class _Node(NamedTuple):
    rule: Rule
    conclusion: Literal
    children: list["_Node"]


# fresh facts by index; ``SynthesisConfig`` keeps ``max_facts`` within the cap
_FACTS = tuple(FactId(i) for i in range(UNIVERSE_CAP))


class _OutOfFacts(Exception):
    pass


class _Retry(Exception):
    pass


class _Builder:
    def __init__(self, cfg: SynthesisConfig, rng: random.Random):
        self.cfg = cfg
        self.rng = rng
        self.next_fact = 0
        self.intended: dict[FactId, bool] = {}
        self.leaves: list[Literal] = []
        # the leaves again, split by value: (false ones, true ones)
        self.leaves_by_value: tuple[list[Literal], list[Literal]] = ([], [])
        self.rules: list[Rule] = []
        self.rule_keys: set[frozenset[FactId]] = set()

    def fresh_fact(self, value: Optional[bool]) -> FactId:
        index = self.next_fact
        if index >= self.cfg.max_facts:
            raise _OutOfFacts()
        fact = _FACTS[index]
        self.next_fact = index + 1
        if value is not None:
            self.intended[fact] = value
        return fact

    def budget_left(self) -> int:
        return self.cfg.max_facts - self.next_fact

    def add_rule(self, rule: Rule) -> bool:
        key = frozenset(rule.slots)
        if key in self.rule_keys:
            return False
        self.rule_keys.add(key)
        self.rules.append(rule)
        return True

    def make_leaf(self, value: bool, taken: set[FactId]) -> Literal:
        same = self.leaves_by_value[value]
        reusable = [l for l in same if l.fact not in taken]
        if reusable and (self.rng.random() > self.cfg.p_fresh or self.budget_left() <= 0):
            return self.rng.choice(reusable)
        lit = Literal(self.fresh_fact(value), value)
        self.leaves.append(lit)
        same.append(lit)
        return lit

    def _bind_passive(self, forced: Optional[bool], parent: Optional[Literal],
                      taken: set[FactId]) -> FactId:
        # a slot the rule constrains (given this step's intended values) may
        # only take a fact of the forced value, or a fresh one
        rng = self.rng
        if (parent is not None and parent.fact not in taken
                and (forced is None or forced == parent.value)
                and rng.random() < self.cfg.p_cycle_slot):
            return parent.fact

        if forced is None:
            pool = [f for f in self.intended if f not in taken]
        else:
            pool = [f for f, v in self.intended.items() if v == forced and f not in taken]
        if pool and (rng.random() < 0.5 or self.budget_left() <= 0):
            return rng.choice(pool)
        return self.fresh_fact(forced)

    def expand(self, goal: Literal, budget: int,
               parent: Optional[Literal]) -> tuple[_Node, int]:
        """Create the step concluding ``goal``; returns (node, steps spent)."""
        rng = self.rng
        shapes, cum_weights = self.cfg.shape_pools[goal.value]
        template, arity, derived_slot, premises, passive, forced = \
            shapes[_draw(rng, cum_weights)]
        slots: list[Optional[FactId]] = [None] * arity
        slots[derived_slot] = goal.fact
        taken = {goal.fact}

        # which premises become subgoals: in a shuffled order, each but the
        # last with p 0.35, the last always, while steps remain
        remaining = budget - 1
        if len(premises) == 1:
            expand_flags = (remaining > 0,)
        else:
            first, last = (1, 0) if _swaps_two(rng) else (0, 1)
            expand_flags = [False, False]
            if remaining > 0:
                expand_flags[first] = rng.random() < 0.35
                expand_flags[last] = True

        children: list[_Node] = []
        for (slot, value), flag in zip(premises, expand_flags):
            if flag and remaining > 0:
                fact = self.fresh_fact(value)
                node, used = self.expand(Literal(fact, value), remaining, goal)
                remaining -= used
                children.append(node)
            else:
                fact = self.make_leaf(value, taken).fact
            slots[slot] = fact
            taken.add(fact)

        for slot in passive:
            fact = self._bind_passive(forced, parent, taken)
            slots[slot] = fact
            taken.add(fact)

        rule = Rule(template, tuple(slots))  # type: ignore[arg-type]
        if not self.add_rule(rule):
            raise _Retry()
        return _Node(rule, goal, children), budget - remaining


def _emit(node: _Node, rng: random.Random, out: list[_Node]) -> None:
    """Post-order, each node's children in shuffled order (at most two)."""
    children = node.children
    if len(children) == 2 and _swaps_two(rng):
        children = [children[1], children[0]]
    for child in children:
        _emit(child, rng, out)
    out.append(node)


def _split(known: Mapping[FactId, Literal]) -> tuple[list[FactId], list[FactId]]:
    """The known facts of an assignment, in fact order, as (true ones, false ones)."""
    lits = sorted(known.values())
    return [f for f, v in lits if v], [f for f, v in lits if not v]


def _side_step(builder: _Builder, known: Mapping[FactId, Literal],
               ahead: set[FactId]) -> Optional[tuple[Rule, Literal]]:
    """One step over the established facts ``known`` whose fresh conclusion
    nothing consumes, drawn from ``_SIDE_ROWS``. ``ahead`` holds the facts
    later steps mention; corruption targets picked outside it stay inert
    downstream, so the retired pools prefer those."""
    rng = builder.rng
    if not known or builder.budget_left() <= 0:
        return None
    trues, falses = _split(known)
    assigned = sorted(known)
    # by pool; the retired pools are built when a row first draws from them
    pools: list[Optional[list[FactId]]] = [trues, falses, None, None, assigned, falses,
                                           assigned]

    # weighted draws without replacement, up to the first row that builds
    rows, cum_weights = _FEASIBLE_SIDE_ROWS[bool(trues), bool(falses)]
    while rows:
        pick = _draw(rng, cum_weights)
        row = rows[pick]
        slots: list[Optional[FactId]] = [None] * row.arity
        for slot, pool, leans_true in row.plan:
            facts = pools[pool]
            if facts is None:
                of_value = trues if pool == _RETIRED_TRUE else falses
                facts = pools[pool] = [f for f in of_value if f not in ahead] or of_value
            left = [f for f in facts if f not in slots]
            if leans_true:
                true_left = [f for f in trues if f not in slots]
                if true_left and (not left or rng.random() < 0.7):
                    left = true_left
            if not left:
                break
            slots[slot] = rng.choice(left)
        else:
            slot, value = row.derived[tuple(known[slots[s]][1] for s in row.premise_slots)]
            conclusion = Literal(builder.fresh_fact(value), value)
            slots[slot] = conclusion.fact
            rule = Rule(row.template, tuple(slots))  # type: ignore[arg-type]
            builder.add_rule(rule)  # accepted: the fresh fact makes the rule new
            return rule, conclusion
        rows = rows[:pick] + rows[pick + 1:]
        cum_weights = list(itertools.accumulate(r.weight for r in rows))
    return None


def _plant_spare_impls(builder: _Builder, known: Mapping[FactId, Literal], count: int,
                       distractors: int) -> None:
    """Implication rules no step cites, satisfied by the intended model: ``count``
    alternating a true consequent under an unassigned antecedent and a false
    antecedent paired with a true consequent, then ``distractors`` of the latter."""
    rng = builder.rng
    trues, falses = _split(known)
    for i in range(count + distractors):
        if i < count and i % 2 == 0 and trues and builder.budget_left() > 0:
            x = rng.choice(trues)
            y = builder.fresh_fact(None)
            builder.add_rule(Rule(RuleTemplate.IMPL, (y, x)))
        elif falses and trues:
            a, b = rng.choice(falses), rng.choice(trues)
            builder.add_rule(Rule(RuleTemplate.IMPL, (a, b)))


# per template, each catalog pattern as (premise count, derived slot, derived
# value, premises), so ``min_derivation_cost`` reads plain ints and tuples
_CODED_CATALOG = {template: tuple((len(p.premises), *p.derived, p.premises) for p in patterns)
                  for template, patterns in _CATALOG.items()}


def min_derivation_cost(rules: Iterable[Rule], base: Iterable[Literal],
                        goal: Literal) -> Optional[int]:
    """Fewest pattern applications deriving ``goal`` from ``base``, or None
    when the catalog cannot reach it.

    A derivation costs 1 plus the costs of its premises, a superior function,
    so Knuth's generalization of Dijkstra's algorithm ("A generalization of
    Dijkstra's algorithm", IPL 6(1), 1977) settles literals in cost order and
    reaches the least fixpoint in one pass: a pattern fires once its last
    premise is settled, and the search stops when the goal is settled.
    """
    # literals are ints, 2 * fact index + value, which hash and order cheaply;
    # per premise, the pattern instances waiting on it, each as a mutable
    # [unsettled premises, settled premise cost, derived literal]
    waiting: dict[int, list[list[int]]] = collections.defaultdict(list)
    for rule in rules:
        keys = [2 * f for f in rule.slots]
        for count, slot, value, premises in _CODED_CATALOG[rule.template]:
            entry = [count, 0, keys[slot] + value]
            for slot, value in premises:
                waiting[keys[slot] + value].append(entry)
    target = 2 * goal[0] + goal[1]
    heap = [(0, 2 * fact + value) for fact, value in base]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    settled: set[int] = set()
    while heap:
        cost, lit = pop(heap)
        if lit in settled:
            continue
        if lit == target:
            return cost
        settled.add(lit)
        for entry in waiting.get(lit, ()):
            entry[0] -= 1
            entry[1] += cost
            if entry[0] == 0 and entry[2] not in settled:
                push(heap, (1 + entry[1], entry[2]))
    return None


def _splice_side_steps(nodes: Sequence[_Node], count: int,
                       rng: random.Random) -> Optional[list[Optional[_Node]]]:
    """The backbone in post-order with ``count`` side steps (``None``) spliced
    in, never in the first two positions; None at the first draw that puts a
    side step last, where the chain could not end on the goal.

    Inserting at the end is the only draw that moves the root from last place
    and no later draw moves it back, so rejecting there keeps the law of the
    kept layouts and skips building the side steps of a doomed attempt."""
    tokens: list[Optional[_Node]] = list(nodes)
    for _ in range(count):
        at = rng.randint(2, len(tokens))
        if at == len(tokens):
            return None
        tokens.insert(at, None)
    return tokens


def _try_build(cfg: SynthesisConfig, rng: random.Random) -> Optional[CorrectChain]:
    total = rng.randint(*cfg.step_count)
    planned_side = min(rng.randint(*cfg.side_steps),
                       total - max(cfg.min_useful_steps + 1, 4))
    planned_side = max(planned_side, 0)
    builder = _Builder(cfg, rng)
    goal_value = rng.random() < 0.5
    goal = Literal(builder.fresh_fact(goal_value), goal_value)

    root, spent = builder.expand(goal, total - planned_side, None)
    if spent < max(cfg.min_useful_steps, 3):
        return None

    nodes: list[_Node] = []
    _emit(root, rng, nodes)
    tokens = _splice_side_steps(nodes, total - spent, rng)
    if tokens is None:
        return None

    # the walk's assignment, each fact's literal: base facts, then conclusions
    steps: list[Step] = []
    known = {l.fact: l for l in builder.leaves}
    for pos, token in enumerate(tokens):
        if token is None:
            ahead = {f for later in tokens[pos + 1:] if later is not None
                     for f in later.rule.slots}
            made = _side_step(builder, known, ahead)
            if made is None:
                return None
            rule, concl = made
        else:
            rule, concl = token.rule, token.conclusion
        steps.append(Step(pos + 1, known_supports(rule, concl.fact, known), rule, concl))
        assign_literal(known, concl)

    _plant_spare_impls(builder, known, cfg.spare_impl_rules, cfg.distractor_rules)
    chain = CorrectChain(base_facts=tuple(builder.leaves), rules=tuple(builder.rules),
                         steps=tuple(steps), goal=goal)
    cost = min_derivation_cost(chain.rules, chain.base_facts, goal)
    if cost is None or cost < cfg.min_useful_steps:
        return None
    return chain


def synthesize_chain(cfg: SynthesisConfig, seed: int) -> CorrectChain:
    """Deterministic in (cfg, seed); rejection-samples until the step budget,
    the side steps and the derivation cost all fit. The chain is not proved
    here: ``dataset.build_instance`` proves the chain it stores."""
    rng = random.Random(seed)
    for _ in range(cfg.max_attempts):
        try:
            chain = _try_build(cfg, rng)
        except (_OutOfFacts, _Retry):
            chain = None
        if chain is not None:
            return chain
    raise SynthesisExhausted(
        f"no valid chain after {cfg.max_attempts} attempts (seed {seed})")


@dataclass(frozen=True)
class ChainReport:
    valid: bool
    failures: tuple[str, ...]


class Prefix:
    """A theory's model table replayed over a growing prefix.

    ``known`` (read-only to callers) maps each fact the prefix assigns to its
    literal, starting from ``literals``; ``state`` is a copy of it as a
    ``State``. The table is built with the start fixed, so it spans only the
    facts the start leaves free, and ``rows`` starts as all of its rows.
    ``extend``, the only code that grows the prefix, narrows ``rows`` with
    ``table.restrict``, so ``rows`` always equals ``table.restrict_state(state)``
    (restriction is an AND, and a fixed fact's column is constant).
    """

    def __init__(self, theory: Theory, literals: Iterable[Literal]):
        self.known: dict[FactId, Literal] = {l.fact: l for l in literals}
        self.table = model_table(theory, tuple(sorted(self.known.values())))
        self.rows = self.table.rows

    @property
    def state(self) -> State:
        return State(dict(self.known.values()))

    def extend(self, lit: Literal) -> None:
        assign_literal(self.known, lit)
        self.rows = self.table.restrict(self.rows, lit)

    def check(self, step: Step) -> list[str]:
        """The step's faults against the prefix, as ``verify_chain`` prints
        them, in order: a support not a base fact or earlier conclusion; no
        licensed direction instantiated, or a support off the rule or on the
        concluded fact; the concluded fact already assigned; a support or the
        conclusion neither assigned nor entailed; supports other than the
        rule's assigned facts in slot order (``known_supports``). Empty if valid."""
        known, rule = self.known, step.rule
        supports, conclusion = step.supports, step.conclusion
        slots, concluded = rule.slots, conclusion.fact
        faults = []
        if any([known.get(lit[0]) != lit for lit in supports]):
            faults.append("support not established")
        if (any(fact == concluded or fact not in slots for fact, _ in supports)
                or match_pattern(rule, supports, conclusion) is None):
            faults.append("no licensed pattern matches")
        if concluded in known:
            faults.append("fact concluded twice")
        entailed, rows = self.table.entailed, self.rows
        for lit in (*supports, conclusion):
            if known.get(lit[0]) != lit and not entailed(rows, lit):
                faults.append("not entailed by prefix")
                break
        if supports != known_supports(rule, concluded, known):
            faults.append("supports are not the known rule facts")
        return faults

    def replay(self, steps: Sequence[Step]) -> int:
        """Extend by each step's conclusion up to the first step with a
        fault; returns the number of steps before it."""
        for done, step in enumerate(steps):
            if self.check(step):
                return done
            self.extend(step.conclusion)
        return len(steps)


def verify_chain(chain: CorrectChain) -> ChainReport:
    failures: list[str] = []
    try:
        theory = chain.theory()
    except Exception as exc:  # noqa: BLE001 - report, don't raise
        return ChainReport(False, (f"theory: {exc}",))

    prefix = Prefix(theory, chain.base_facts)
    if len(prefix.known) != len(chain.base_facts):
        failures.append("base facts assign some fact twice")
    if not prefix.rows:
        failures.append("base facts are inconsistent with the rules")
        return ChainReport(False, tuple(failures))

    rule_set = set(chain.rules)
    for step in chain.steps:
        if step.rule not in rule_set:
            failures.append(f"step {step.index}: rule not in the chain's rule list")
        for fault in prefix.check(step):
            failures.append(f"step {step.index}: {fault}")
        if step.conclusion.fact not in prefix.known:
            prefix.extend(step.conclusion)

    try:
        topological_order(chain.steps)
    except ValueError:
        failures.append("dependency cycle")

    if not chain.steps or chain.steps[-1].conclusion != chain.goal:
        failures.append("final step does not conclude the goal")
    if not prefix.rows:
        failures.append("established facts are inconsistent with the rules")

    return ChainReport(not failures, tuple(failures))


def topological_order(steps: Sequence[Step]) -> list[int]:
    """Dependency-respecting 1-based step order, stable on original index.

    Each support depends on the first step concluding it; raises ValueError
    when the steps support each other in a cycle. Kahn's algorithm with a
    min-heap of the ready steps, so each pick is the lowest index whose
    dependencies are all placed.
    """
    concluded_by: dict[Literal, int] = {}
    for step in steps:
        concluded_by.setdefault(step.conclusion, step.index)
    deps: dict[int, set[int]] = {s.index: set() for s in steps}
    for step in steps:
        for lit in step.supports:
            src = concluded_by.get(lit)
            if src is not None and src != step.index:
                deps[step.index].add(src)
    unplaced = {i: len(d) for i, d in deps.items()}
    dependents: dict[int, list[int]] = {i: [] for i in deps}
    for i, d in deps.items():
        for src in d:
            dependents[src].append(i)
    ready = [i for i, n in unplaced.items() if n == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        nxt = heapq.heappop(ready)
        order.append(nxt)
        for i in dependents[nxt]:
            unplaced[i] -= 1
            if unplaced[i] == 0:
                heapq.heappush(ready, i)
    if len(order) < len(deps):
        raise ValueError("cycle detected among steps")
    return order
