"""Correct-chain synthesis: backward goal expansion, then forward verification.

A chain grows from the target literal: pick a rule template and a sound
derivation direction that concludes it, turn that direction's premises into
subgoals, and recurse until the step budget is spent; open subgoals become
base facts. Emission is post-order, so every support is established before
its step runs. On top of the goal tree the generator weaves in:

  * side steps deriving fresh facts that nothing downstream consumes,
  * spare implication rules the chain never cites but the theory carries,
  * rules whose unused slot is bound to the conclusion of the step that will
    consume this step's own conclusion (sites for cyclic rewiring).

Synthesis itself proves nothing: ``dataset.build_instance`` runs
``verify_chain`` once, on the chain it stores, so no prover work goes to the
candidates that are drawn and then discarded.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .logic import TEMPLATES, FactId, Literal, Rule, RuleTemplate, State, TruthValue
from .prover import (
    _CATALOG,
    UNIVERSE_CAP,
    InferencePattern,
    Status,
    Theory,
    licensed_patterns,
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

    def base_state(self) -> State:
        return State({l.fact: l.value for l in self.base_facts})

    def state_before(self, index: int) -> State:
        """Prefix state: base facts plus conclusions of steps before ``index``."""
        state = self.base_state()
        for step in self.steps[: index - 1]:
            state = state.with_literal(step.conclusion)
        return state


def step_supports(rule: Rule, conclusion_fact: FactId, state: State) -> tuple[Literal, ...]:
    """Known rule facts, in slot order, excluding the concluded fact."""
    out = []
    for fact in rule.facts():
        if fact == conclusion_fact:
            continue
        value = state.value_of(fact)
        if value is not TruthValue.UNKNOWN:
            out.append(Literal(fact, bool(value)))
    return tuple(out)


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
        if not (all(map(math.isfinite, weights)) and any(w > 0 for w in weights)):
            raise ValueError("template weights must be finite, and some positive")
        if self.side_steps[0] > self.side_steps[1]:
            raise ValueError(f"side_steps {self.side_steps}: minimum exceeds maximum")

    @functools.cached_property
    def shape_pools(self) -> dict[bool, tuple[tuple[InferencePattern, ...], list[float]]]:
        """Per concluded value: the goal-expansion shapes whose template has
        positive weight, in catalog order, and their cumulative weights. Every
        template concludes both values, so neither pool is empty."""
        weights = dict(self.template_weights)
        pools = {}
        for value, shapes in ((True, _SHAPES_TRUE), (False, _SHAPES_FALSE)):
            pool = tuple(s for s in shapes if weights.get(s.template, 0.0) > 0.0)
            pools[value] = (pool, list(itertools.accumulate(weights[s.template]
                                                            for s in pool)))
        return pools


def _pick(*choices: tuple[RuleTemplate, int]) -> tuple[InferencePattern, ...]:
    return tuple(_CATALOG[template][i] for template, i in choices)


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


@dataclass
class _Node:
    rule: Rule
    conclusion: Literal
    children: list["_Node"] = field(default_factory=list)


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
        self.rules: list[Rule] = []
        self.rule_keys: set[tuple] = set()

    def fresh_fact(self, value: Optional[bool]) -> FactId:
        if self.next_fact >= self.cfg.max_facts:
            raise _OutOfFacts()
        fact = FactId(self.next_fact)
        self.next_fact += 1
        if value is not None:
            self.intended[fact] = value
        return fact

    def budget_left(self) -> int:
        return self.cfg.max_facts - self.next_fact

    def add_rule(self, rule: Rule) -> bool:
        key = frozenset(rule.facts())
        if key in self.rule_keys:
            return False
        self.rule_keys.add(key)
        self.rules.append(rule)
        return True

    def make_leaf(self, value: bool, taken: set[FactId]) -> Literal:
        reusable = [l for l in self.leaves if l.value == value and l.fact not in taken]
        if reusable and (self.rng.random() > self.cfg.p_fresh or self.budget_left() <= 0):
            return self.rng.choice(reusable)
        lit = Literal(self.fresh_fact(value), value)
        self.leaves.append(lit)
        return lit

    def pick_shape(self, value: bool) -> InferencePattern:
        pool, cum_weights = self.cfg.shape_pools[value]
        return self.rng.choices(pool, cum_weights=cum_weights, k=1)[0]

    def _bind_passive(self, shape: InferencePattern, goal: Literal,
                      parent: Optional[Literal], taken: set[FactId]) -> FactId:
        # a slot the rule constrains (given this step's intended values) may
        # only take a fact of the forced value, or a fresh one
        forced: Optional[bool] = None
        if shape.template is RuleTemplate.AND_CONS and shape.derived[1]:
            forced = True
        if shape.template is RuleTemplate.OR_ANTE and not shape.derived[1]:
            forced = False

        if (parent is not None and parent.fact not in taken
                and (forced is None or forced == parent.value)
                and self.rng.random() < self.cfg.p_cycle_slot):
            return parent.fact

        pool = [f for f, v in self.intended.items()
                if f not in taken and (forced is None or v == forced)]
        if pool and (self.rng.random() < 0.5 or self.budget_left() <= 0):
            return self.rng.choice(pool)
        return self.fresh_fact(forced)

    def expand(self, goal: Literal, budget: int,
               parent: Optional[Literal]) -> tuple[_Node, int]:
        """Create the step concluding ``goal``; returns (node, steps spent)."""
        rng = self.rng
        shape = self.pick_shape(goal.value)
        slots: list[Optional[FactId]] = [None] * TEMPLATES[shape.template][0]
        slots[shape.derived[0]] = goal.fact
        taken = {goal.fact}

        remaining = budget - 1
        order = list(range(len(shape.premises)))
        rng.shuffle(order)
        expand_flags = [False] * len(shape.premises)
        for pos, i in enumerate(order):
            if remaining > 0 and (pos == len(order) - 1 or rng.random() < 0.35):
                expand_flags[i] = True

        children: list[_Node] = []
        for i, (slot, value) in enumerate(shape.premises):
            if expand_flags[i] and remaining > 0:
                fact = self.fresh_fact(value)
                lit = Literal(fact, value)
                slots[slot] = fact
                taken.add(fact)
                node, used = self.expand(lit, remaining, goal)
                remaining -= used
                children.append(node)
            else:
                lit = self.make_leaf(value, taken)
                slots[slot] = lit.fact
                taken.add(lit.fact)

        for slot, bound in enumerate(slots):
            if bound is None:
                fact = self._bind_passive(shape, goal, parent, taken)
                slots[slot] = fact
                taken.add(fact)

        rule = Rule(shape.template, tuple(slots))  # type: ignore[arg-type]
        if not self.add_rule(rule):
            raise _Retry()
        return _Node(rule, goal, children), budget - remaining


def _emit(node: _Node, rng: random.Random, out: list[_Node]) -> None:
    children = list(node.children)
    rng.shuffle(children)
    for child in children:
        _emit(child, rng, out)
    out.append(node)


# weights favour the shapes that admit the scarcer corruption kinds
_SIDE_FLAVORS: tuple[tuple[str, float], ...] = (
    ("xor_bare", 3.0),
    ("xor_ante_bwd", 2.0),
    ("or_cons_fwd", 2.5),
    ("and_ante_bwd", 2.0),
    ("and_cons_bwd", 1.5),
    ("impl_fwd", 1.5),
    ("impl_bwd", 1.0),
    ("and_cons_fwd", 1.0),
    ("or_ante_fwd", 1.0),
    ("xor_ante_fwd", 1.0),
)


def _side_step(builder: _Builder, state: State,
               ahead: set[FactId]) -> Optional[tuple[Rule, Literal]]:
    """One step over established facts whose fresh conclusion nothing consumes.

    ``ahead`` holds the facts later steps mention; corruption targets picked
    outside it stay inert downstream, so those are preferred.
    """
    rng = builder.rng
    known = [(f, bool(state.value_of(f))) for f in sorted(state.facts())]
    if not known or builder.budget_left() <= 0:
        return None
    trues = [f for f, v in known if v]
    falses = [f for f, v in known if not v]
    retired_t = [f for f in trues if f not in ahead]
    retired_f = [f for f in falses if f not in ahead]

    feasible = {"xor_bare"}
    if trues:
        feasible |= {"impl_fwd", "and_cons_fwd", "or_ante_fwd"}
    if falses:
        feasible |= {"impl_bwd", "xor_ante_bwd", "and_cons_bwd"}
    if trues and falses:
        feasible |= {"or_cons_fwd", "and_ante_bwd", "xor_ante_fwd"}

    # a weighted draw without replacement, one flavour at a time, up to the
    # first that builds
    pool = [(f, w) for f, w in _SIDE_FLAVORS if f in feasible]
    while pool:
        pick = rng.choices(range(len(pool)), weights=[w for _, w in pool], k=1)[0]
        made = _make_side(builder, pool.pop(pick)[0], trues, falses, known,
                          retired_t or trues, retired_f or falses)
        if made is not None:
            return made
    return None


def _make_side(builder: _Builder, flavor: str, trues: list[FactId],
               falses: list[FactId], known: list[tuple[FactId, bool]],
               retired_t: list[FactId], retired_f: list[FactId],
               ) -> Optional[tuple[Rule, Literal]]:
    rng = builder.rng
    if flavor == "xor_bare":
        # prefer a true source: its corruption sites are scarcer
        if trues and (not falses or rng.random() < 0.7):
            x, v = rng.choice(trues), True
        else:
            x, v = rng.choice(falses), False
        y = builder.fresh_fact(not v)
        rule, concl = Rule(RuleTemplate.XOR_BARE, (x, y)), Literal(y, not v)
    elif flavor == "impl_fwd":
        x = rng.choice(trues)
        y = builder.fresh_fact(True)
        rule, concl = Rule(RuleTemplate.IMPL, (x, y)), Literal(y, True)
    elif flavor == "impl_bwd":
        x = rng.choice(falses)
        y = builder.fresh_fact(False)
        rule, concl = Rule(RuleTemplate.IMPL, (y, x)), Literal(y, False)
    elif flavor == "or_cons_fwd":
        x, b = rng.choice(trues), rng.choice(retired_f)
        if x == b:
            return None
        y = builder.fresh_fact(True)
        rule, concl = Rule(RuleTemplate.OR_CONS, (x, b, y)), Literal(y, True)
    elif flavor == "and_ante_bwd":
        a, c = rng.choice(retired_t), rng.choice(falses)
        if a == c:
            return None
        y = builder.fresh_fact(False)
        rule, concl = Rule(RuleTemplate.AND_ANTE, (a, y, c)), Literal(y, False)
    elif flavor == "and_cons_fwd":
        pool = [f for f in trues]
        x = rng.choice(pool)
        others = [f for f in trues if f != x]
        if not others:
            return None
        z = rng.choice(others)
        y = builder.fresh_fact(True)
        rule, concl = Rule(RuleTemplate.AND_CONS, (x, y, z)), Literal(y, True)
    elif flavor == "or_ante_fwd":
        x = rng.choice(trues)
        pool = [f for f, _ in known if f != x]
        if not pool:
            return None
        b = rng.choice(pool)
        y = builder.fresh_fact(True)
        rule, concl = Rule(RuleTemplate.OR_ANTE, (x, b, y)), Literal(y, True)
    elif flavor == "and_cons_bwd":
        b = rng.choice(falses)
        pool = [f for f, _ in known if f != b]
        if not pool:
            return None
        x = rng.choice(pool)
        y = builder.fresh_fact(False)
        rule, concl = Rule(RuleTemplate.AND_CONS, (y, b, x)), Literal(y, False)
    elif flavor == "xor_ante_bwd":
        c = rng.choice(falses)
        pool = [(f, v) for f, v in known if f != c]
        true_pool = [(f, v) for f, v in pool if v]
        if true_pool and rng.random() < 0.7:
            pool = true_pool
        if not pool:
            return None
        b, w = rng.choice(pool)
        y = builder.fresh_fact(w)
        rule, concl = Rule(RuleTemplate.XOR_ANTE, (y, b, c)), Literal(y, w)
    else:  # xor_ante_fwd
        x, b = rng.choice(trues), rng.choice(falses)
        y = builder.fresh_fact(True)
        rule, concl = Rule(RuleTemplate.XOR_ANTE, (x, b, y)), Literal(y, True)

    # every side rule holds the fresh fact y, so its fact set is new and
    # add_rule accepts it
    builder.add_rule(rule)
    return rule, concl


def _plant_spare_impls(builder: _Builder, state: State, count: int) -> None:
    """Implication rules no step cites, satisfied by the intended model: a
    true consequent under an unassigned antecedent, and a false antecedent
    paired with a true consequent."""
    rng = builder.rng
    trues = [f for f in sorted(state.facts()) if state.value_of(f) is TruthValue.TRUE]
    falses = [f for f in sorted(state.facts()) if state.value_of(f) is TruthValue.FALSE]
    for i in range(count):
        if i % 2 == 0 and trues and builder.budget_left() > 0:
            x = rng.choice(trues)
            y = builder.fresh_fact(None)
            builder.add_rule(Rule(RuleTemplate.IMPL, (y, x)))
        elif falses and trues:
            a, b = rng.choice(falses), rng.choice(trues)
            builder.add_rule(Rule(RuleTemplate.IMPL, (a, b)))


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
    waiting: dict[int, list[list[int]]] = {}
    for rule in rules:
        slots = [2 * f.index for f in rule.slots]
        for pattern in licensed_patterns(rule):
            slot, value = pattern.derived
            entry = [len(pattern.premises), 0, slots[slot] + value]
            for slot, value in pattern.premises:
                waiting.setdefault(slots[slot] + value, []).append(entry)
    target = 2 * goal.fact.index + goal.value
    heap = [(0, 2 * lit.fact.index + lit.value) for lit in base]
    heapq.heapify(heap)
    settled: set[int] = set()
    while heap:
        cost, lit = heapq.heappop(heap)
        if lit in settled:
            continue
        if lit == target:
            return cost
        settled.add(lit)
        for entry in waiting.get(lit, ()):
            entry[0] -= 1
            entry[1] += cost
            if entry[0] == 0 and entry[2] not in settled:
                heapq.heappush(heap, (1 + entry[1], entry[2]))
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

    sequence: list[tuple[Rule, Literal, tuple[Literal, ...]]] = []
    state = State({l.fact: l.value for l in builder.leaves})
    for pos, token in enumerate(tokens):
        if token is None:
            ahead: set[FactId] = set()
            for later in tokens[pos + 1:]:
                if later is not None:
                    ahead.update(later.rule.facts())
            made = _side_step(builder, state, ahead)
            if made is None:
                return None
            rule, concl = made
        else:
            rule, concl = token.rule, token.conclusion
        supports = step_supports(rule, concl.fact, state)
        sequence.append((rule, concl, supports))
        state = state.with_literal(concl)

    _plant_spare_impls(builder, state, cfg.spare_impl_rules)
    if cfg.distractor_rules:
        trues = [f for f in sorted(state.facts()) if state.value_of(f) is TruthValue.TRUE]
        falses = [f for f in sorted(state.facts()) if state.value_of(f) is TruthValue.FALSE]
        for _ in range(cfg.distractor_rules):
            if falses and trues:
                builder.add_rule(Rule(
                    RuleTemplate.IMPL, (rng.choice(falses), rng.choice(trues))))

    steps = tuple(Step(i + 1, supports, rule, concl)
                  for i, (rule, concl, supports) in enumerate(sequence))
    chain = CorrectChain(base_facts=tuple(builder.leaves), rules=tuple(builder.rules),
                         steps=steps, goal=goal)
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
class StepCheck:
    semantic: bool
    procedural: bool
    pattern: bool
    fresh_conclusion: bool

    @property
    def ok(self) -> bool:
        return self.semantic and self.procedural and self.pattern and self.fresh_conclusion


@dataclass(frozen=True)
class ChainReport:
    valid: bool
    failures: tuple[str, ...]


class Prefix:
    """A theory's model table replayed over a growing prefix.

    ``state`` and ``established`` start from ``literals``. The table is built
    with ``state`` fixed, so it spans only the facts the start leaves free,
    and ``rows`` starts as all of its rows. ``extend`` is the only code that
    grows the prefix, and it narrows ``rows`` with ``table.restrict``, so
    ``rows`` always equals ``table.restrict_state(state)`` (restriction is an
    AND, and a fixed fact's column is constant).
    """

    def __init__(self, theory: Theory, literals: Iterable[Literal]):
        literals = tuple(literals)
        self.state = State({l.fact: l.value for l in literals})
        self.table = model_table(theory, self.state.literals())
        self.rows = self.table.rows
        self.established = set(literals)

    def extend(self, lit: Literal) -> None:
        self.state = self.state.with_literal(lit)
        self.established.add(lit)
        self.rows = self.table.restrict(self.rows, lit)

    def check(self, step: Step) -> StepCheck:
        """Validity of one step against the prefix.

        procedural: every support is a base fact or an earlier conclusion;
        pattern:    (supports, conclusion) instantiates a licensed direction and
                    mentions only rule facts;
        fresh:      the concluded fact is not already assigned;
        semantic:   supports and conclusion are entailed by (theory, prefix); a
                    fact outside the theory's universe is never entailed.
        """
        table, rows, state = self.table, self.rows, self.state
        rule_facts = set(step.rule.facts())
        procedural = all(lit in self.established for lit in step.supports)
        in_rule = (step.support_facts() <= rule_facts
                   and step.conclusion.fact in rule_facts
                   and step.conclusion.fact not in step.support_facts())
        pattern = in_rule and match_pattern(step.rule, step.supports, step.conclusion) is not None
        fresh = state.value_of(step.conclusion.fact) is TruthValue.UNKNOWN
        semantic = all(state.holds(lit) or (lit.fact in table.columns and
                                            table.decide(rows, lit).status is Status.ENTAILED)
                       for lit in (*step.supports, step.conclusion))
        return StepCheck(semantic, procedural, pattern, fresh)

    def replay(self, steps: Sequence[Step]) -> int:
        """Extend by each step's conclusion while the step checks ``ok``;
        returns the number of steps that did."""
        for done, step in enumerate(steps):
            if not self.check(step).ok:
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
    if len(prefix.state) != len(chain.base_facts):
        failures.append("base facts assign some fact twice")
    if not prefix.rows:
        failures.append("base facts are inconsistent with the rules")
        return ChainReport(False, tuple(failures))

    rule_set = set(chain.rules)
    for step in chain.steps:
        if step.rule not in rule_set:
            failures.append(f"step {step.index}: rule not in the chain's rule list")
        check = prefix.check(step)
        if not check.procedural:
            failures.append(f"step {step.index}: support not established")
        if not check.pattern:
            failures.append(f"step {step.index}: no licensed pattern matches")
        if not check.fresh_conclusion:
            failures.append(f"step {step.index}: fact concluded twice")
        if not check.semantic:
            failures.append(f"step {step.index}: not entailed by prefix")
        if check.fresh_conclusion:
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
    when the steps support each other in a cycle.
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
    order: list[int] = []
    done: set[int] = set()
    pending = sorted(deps)
    while pending:
        ready = [i for i in pending if deps[i] <= done]
        if not ready:
            raise ValueError("cycle detected among steps")
        nxt = ready[0]
        order.append(nxt)
        done.add(nxt)
        pending.remove(nxt)
    return order
