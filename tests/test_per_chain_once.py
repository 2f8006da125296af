"""Per-chain work done once or not at all: the error-type rows, the cached
theory and the single-pass derivation cost.

Each fast path is checked against the straightforward computation it
replaced, kept here as the reference: the repeated fixpoint sweep for
``min_derivation_cost``, and the per-position applicability and hook
functions for the rows of ``injection.ROWS``.
"""

from __future__ import annotations

import random
import sys

import pytest

from counterchain import CorpusConfig, ErrorType, SynthesisConfig, applicable_errors
from counterchain import dataset, injection, synthesis
from counterchain.dataset import build_instance, generate_instances
from counterchain.injection import (ROWS, ErrorGroup, _cycle_sites, _established_literals,
                                   _hooks, spare_implications)
from counterchain.logic import TEMPLATES, FactId, Literal, Rule, RuleTemplate
from counterchain.prover import Direction, licensed_patterns, match_pattern
from counterchain.synthesis import CorrectChain, Step, min_derivation_cost

WIDE = SynthesisConfig(step_count=(10, 12), max_facts=20)


# ---------------------------------------------------------------------------
# reference implementations


def sweep_derivation_cost(rules, base, goal):
    """Least fixpoint of cost(derived) = 1 + sum of premise costs, by sweeping
    every pattern of every rule until nothing changes."""
    cost = {lit: 0 for lit in base}
    changed = True
    while changed:
        changed = False
        for rule in rules:
            for pattern in licensed_patterns(rule):
                premises = pattern.bind_premises(rule)
                if any(p not in cost for p in premises):
                    continue
                c = 1 + sum(cost[p] for p in premises)
                derived = pattern.bind_derived(rule)
                if cost.get(derived, 10 ** 9) > c:
                    cost[derived] = c
                    changed = True
    return cost.get(goal)


def ref_vacuous_hooks(chain, k):
    established = _established_literals(chain, k)
    return [r for r in spare_implications(chain)
            if Literal(r.facts()[0], False) in established
            and Literal(r.facts()[1], True) in established]


def ref_converse_hooks(chain, k):
    established = _established_literals(chain, k)
    assigned = {l.fact for l in established}
    return [r for r in spare_implications(chain)
            if Literal(r.facts()[1], True) in established
            and r.facts()[0] not in assigned]


def ref_cycle_sites(chain, k):
    step = chain.steps[k - 1]
    open_slots = (set(step.rule.facts()) - step.support_facts()
                  - {step.conclusion.fact})
    if not open_slots:
        return []
    return [(j, later.conclusion)
            for j, later in enumerate(chain.steps[k:], k + 1)
            if step.conclusion in later.supports and later.conclusion.fact in open_slots]


def _ref_bridges_premise(bridge: Step, consumer: Step) -> bool:
    pattern = match_pattern(consumer.rule, consumer.supports, consumer.conclusion)
    return pattern is not None and bridge.conclusion in pattern.bind_premises(consumer.rule)


def ref_applicable_errors(chain, k):
    step = chain.steps[k - 1]
    pattern = match_pattern(step.rule, step.supports, step.conclusion)
    if pattern is None:
        return set()
    template = step.rule.template
    forward = pattern.direction is Direction.FORWARD
    out = set()
    if template is RuleTemplate.IMPL:
        out |= {ErrorType.IMPLICATION_MISUSE, ErrorType.CONVERSE_ERROR}
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
    if ref_vacuous_hooks(chain, k):
        out.add(ErrorType.VACUOUS_TRUTH_ERROR)
    if ref_converse_hooks(chain, k):
        out.add(ErrorType.CONVERSE_ERROR)
    if k >= 2:
        out.add(ErrorType.REDUNDANT_STEP)
        if k < len(chain.steps) and _ref_bridges_premise(chain.steps[k - 1],
                                                         chain.steps[k]):
            out.add(ErrorType.MISSING_PREREQUISITE)
        if ref_cycle_sites(chain, k):
            out.add(ErrorType.CIRCULAR_REFERENCE)
    return out


# ---------------------------------------------------------------------------
# chains drawn by the generation loop


def _drawn_chains(seed: int, count: int, cfg: SynthesisConfig) -> list[CorrectChain]:
    """Every chain ``synthesize_chain`` returns while ``generate_instances``
    builds ``count`` instances, rejected chains included."""
    drawn = []
    original = dataset.synthesize_chain

    def spy(*args, **kwargs):
        chain = original(*args, **kwargs)
        drawn.append(chain)
        return chain

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "synthesize_chain", spy)
        corpus = CorpusConfig(total_count=count, seed=seed, synthesis=cfg)
        for _ in generate_instances(corpus):
            pass
    return drawn


@pytest.fixture(scope="module")
def drawn_chains():
    out = {}
    for seed in range(1, 6):
        out[("default", seed)] = _drawn_chains(seed, 12, SynthesisConfig())
        out[("wide", seed)] = _drawn_chains(seed, 4, WIDE)
    return out


@pytest.fixture(scope="module")
def many_chains():
    """2,100 chains as ``build_instance`` draws them, from seeded 63-bit
    chain seeds: 1,500 of the default config and 600 of the wide one."""
    rng = random.Random(20261019)
    return [(name, synthesis.synthesize_chain(cfg, rng.getrandbits(63)))
            for name, cfg, n in (("default", SynthesisConfig(), 1500), ("wide", WIDE, 600))
            for _ in range(n)]


def test_rows_cover_every_error_type():
    assert list(ROWS) == list(ErrorType)
    structural = {ErrorType.CONVERSE_ERROR, ErrorType.REDUNDANT_STEP,
                  ErrorType.MISSING_PREREQUISITE, ErrorType.CIRCULAR_REFERENCE}
    for e, row in ROWS.items():
        assert e.group is row.group is (ErrorGroup.STRUCTURAL if e in structural
                                         else ErrorGroup.TRUTH_STATE)
    assert {e: row.length_shift for e, row in ROWS.items() if row.length_shift} == \
        {ErrorType.REDUNDANT_STEP: 1, ErrorType.MISSING_PREREQUISITE: -1}


def test_rows_match_per_position_reference(many_chains):
    positions = 0
    for name, chain in many_chains:
        n = len(chain.steps)
        for k in range(1, n + 1):
            where = (name, chain.goal, k)
            expected = ref_applicable_errors(chain, k)
            for e, row in ROWS.items():
                assert row.applies(chain, k) is (e in expected), (where, e)
            assert applicable_errors(chain, k) == expected, where
            # the lists ``inject`` draws from, in the order it draws by
            vacuous, converse = _hooks(chain, k)
            assert vacuous == ref_vacuous_hooks(chain, k), where
            assert converse == ref_converse_hooks(chain, k), where
            assert _cycle_sites(chain, k) == ref_cycle_sites(chain, k), where
            positions += 1
        for k in (0, n + 1):
            with pytest.raises(IndexError):
                applicable_errors(chain, k)
    assert len(many_chains) >= 2000 and positions > 15000


def test_hook_and_cycle_lists_are_not_all_empty(many_chains):
    """The order checks above must see hook lists of more than one rule. A
    valid chain has at most one cycle site per step: the open slot of a
    three-slot rule is one fact, and only one step concludes it."""
    lists = [(*_hooks(c, k), _cycle_sites(c, k))
             for _, c in many_chains for k in range(1, len(c.steps) + 1)]
    assert any(len(vacuous) > 1 for vacuous, _, _ in lists)
    assert any(len(converse) > 1 for _, converse, _ in lists)
    assert any(cycles for _, _, cycles in lists)
    # every type applies somewhere, so each row's ``applies`` was exercised
    assert all(any(row.applies(c, k) for _, c in many_chains[:300]
                   for k in range(1, len(c.steps) + 1)) for row in ROWS.values())


def test_derivation_cost_matches_sweep_on_drawn_chains(drawn_chains):
    for key, chains in drawn_chains.items():
        for chain in chains:
            for goal in (chain.goal, chain.goal.negated(), *chain.base_facts[:1]):
                expected = sweep_derivation_cost(chain.rules, chain.base_facts, goal)
                got = min_derivation_cost(chain.rules, chain.base_facts, goal)
                assert got == expected, (key, chain.goal, goal)


def _random_case(rng: random.Random):
    n = rng.randint(3, 9)
    facts = [FactId(i) for i in range(n)]
    rules = []
    for _ in range(rng.randint(1, 10)):
        template = rng.choice(list(RuleTemplate))
        arity = TEMPLATES[template][0]
        rules.append(Rule(template, tuple(rng.sample(facts, arity))))
    base = [Literal(f, rng.random() < 0.5) for f in rng.sample(facts, rng.randint(0, 3))]
    goal = Literal(rng.choice(facts), rng.random() < 0.5)
    return rules, base, goal


def test_derivation_cost_matches_sweep_on_random_rule_sets():
    rng = random.Random(20261018)
    outcomes = {"unreachable": 0, "in base": 0, "derived": 0}
    for _ in range(3000):
        rules, base, goal = _random_case(rng)
        expected = sweep_derivation_cost(rules, base, goal)
        assert min_derivation_cost(rules, base, goal) == expected, (rules, base, goal)
        outcomes["unreachable" if expected is None else
                 "in base" if expected == 0 else "derived"] += 1
    assert all(count > 100 for count in outcomes.values()), outcomes


def test_derivation_cost_sums_premise_costs():
    # F0 and F1 give F2 in one step; F2 and F1 give F3, which costs 1 + (1 + 0)
    f = [FactId(i) for i in range(4)]
    rules = [Rule(RuleTemplate.AND_ANTE, (f[0], f[1], f[2])),
             Rule(RuleTemplate.AND_ANTE, (f[2], f[1], f[3]))]
    base = [Literal(f[0], True), Literal(f[1], True)]
    assert min_derivation_cost(rules, base, Literal(f[3], True)) == 2
    assert min_derivation_cost(rules, base, Literal(f[3], False)) is None
    assert min_derivation_cost(rules, base, Literal(f[0], True)) == 0


# ---------------------------------------------------------------------------
# count guard


def _build_with_spies(monkeypatch, target):
    """``build_instance`` for ``target``, with the chains it draws, the
    chains whose hooks or cycle sites it computes, and the chains whose
    theory it computes."""
    drawn, hooked, cycled, theories = [], [], [], []
    synthesize, hooks, cycle_sites, theory_for = (
        dataset.synthesize_chain, injection._hooks, injection._cycle_sites,
        synthesis.theory_for)

    def spy_synthesize(*args, **kwargs):
        drawn.append(synthesize(*args, **kwargs))
        return drawn[-1]

    def spy_hooks(chain, k):
        hooked.append(chain)
        return hooks(chain, k)

    def spy_cycle_sites(chain, k):
        cycled.append(chain)
        return cycle_sites(chain, k)

    def spy_theory_for(*args, **kwargs):
        # the caller is the CorrectChain whose theory is being computed
        theories.append(sys._getframe(1).f_locals["self"])
        return theory_for(*args, **kwargs)

    monkeypatch.setattr(dataset, "synthesize_chain", spy_synthesize)
    monkeypatch.setattr(injection, "_hooks", spy_hooks)
    monkeypatch.setattr(injection, "_cycle_sites", spy_cycle_sites)
    monkeypatch.setattr(synthesis, "theory_for", spy_theory_for)
    inst, reasons = build_instance(CorpusConfig(total_count=40, seed=5), 9, target)
    return inst, reasons, drawn, hooked, cycled, theories


def test_build_instance_does_each_per_chain_computation_once(monkeypatch):
    inst, reasons, drawn, hooked, cycled, theories = _build_with_spies(
        monkeypatch, ErrorType.IMPLICATION_MISUSE)

    # several chains, some with no site and some with failed injections
    assert reasons["no-applicable-site"] >= 1 and reasons["downstream-stuck"] >= 2, reasons
    # a template-only target reads step k's pattern alone: no hooks, no cycle sites
    assert hooked == [] and cycled == []
    # one theory per chain object, however many checks read it
    assert theories
    assert all(isinstance(c, CorrectChain) for c in theories)
    assert len({id(c) for c in theories}) == len(theories)
    assert inst.correct is drawn[-1]


@pytest.mark.parametrize("target", [ErrorType.VACUOUS_TRUTH_ERROR,
                                    ErrorType.CIRCULAR_REFERENCE])
def test_the_spies_see_the_rows_that_read_hooks_or_cycle_sites(monkeypatch, target):
    _, _, drawn, hooked, cycled, _ = _build_with_spies(monkeypatch, target)
    if target is ErrorType.VACUOUS_TRUTH_ERROR:
        assert hooked and not cycled
    else:
        assert cycled and not hooked
    assert {id(c) for c in hooked + cycled} <= {id(c) for c in drawn}


def test_build_instance_proves_only_the_stored_chain(monkeypatch):
    proved = []
    prove = dataset.verify_chain

    def spy(chain):
        proved.append(chain)
        return prove(chain)

    # a proof anywhere in synthesis would show up here too
    monkeypatch.setattr(dataset, "verify_chain", spy)
    monkeypatch.setattr(synthesis, "verify_chain", spy)
    inst, reasons = build_instance(CorpusConfig(total_count=40, seed=5), 9,
                                   ErrorType.IMPLICATION_MISUSE)
    assert sum(reasons.values()) > 0, reasons
    assert [id(c) for c in proved] == [id(inst.correct)]


def test_a_chain_that_fails_its_proof_is_dropped_and_counted(monkeypatch):
    proved = []
    prove = dataset.verify_chain

    def first_fails(chain):
        proved.append(chain)
        if len(proved) == 1:
            return synthesis.ChainReport(False, ("forced failure",))
        return prove(chain)

    monkeypatch.setattr(dataset, "verify_chain", first_fails)
    inst, reasons = build_instance(CorpusConfig(total_count=40, seed=5), 9,
                                   ErrorType.IMPLICATION_MISUSE)
    assert reasons["chain-invalid"] == 1
    assert len(proved) == 2 and inst.correct is proved[1] is not proved[0]
