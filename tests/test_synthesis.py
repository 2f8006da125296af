from __future__ import annotations

import pytest

from counterchain import (
    Literal,
    Step,
    SynthesisConfig,
    parse_literal,
    parse_rule,
    synthesize_chain,
    topological_order,
    verify_chain,
)
from counterchain.synthesis import CorrectChain, Prefix, min_derivation_cost

from . import fixtures
from .oracles import oracle_topological


def test_synthesis_deterministic():
    cfg = SynthesisConfig()
    a = synthesize_chain(cfg, seed=42)
    b = synthesize_chain(cfg, seed=42)
    assert a == b
    c = synthesize_chain(cfg, seed=43)
    assert c != a


def test_step_count_within_configured_range():
    cfg = SynthesisConfig(step_count=(7, 10))
    for seed in range(60):
        chain = synthesize_chain(cfg, seed)
        assert 7 <= len(chain.steps) <= 10


def test_1000_seeded_chains_all_verify_no_duplicate_conclusions():
    cfg = SynthesisConfig()
    for seed in range(1000):
        chain = synthesize_chain(cfg, seed)
        report = verify_chain(chain)
        assert report.valid, (seed, report.failures)
        conclusions = [s.conclusion.fact for s in chain.steps]
        assert len(set(conclusions)) == len(conclusions)


def test_fact_universe_within_cap():
    cfg = SynthesisConfig(max_facts=16)
    for seed in range(100):
        chain = synthesize_chain(cfg, seed)
        assert len(chain.theory().universe) <= 16


def test_goal_is_final_conclusion_and_nontrivial():
    cfg = SynthesisConfig(min_useful_steps=3)
    for seed in range(100):
        chain = synthesize_chain(cfg, seed)
        assert chain.steps[-1].conclusion == chain.goal
        cost = min_derivation_cost(chain.rules, chain.base_facts, chain.goal)
        assert cost is not None and cost >= 3


def test_goal_globally_entailed_by_base_and_rules():
    from counterchain import Status, entails
    cfg = SynthesisConfig()
    for seed in range(25):
        chain = synthesize_chain(cfg, seed)
        verdict = entails(chain.theory(), chain.base_state(), chain.goal)
        assert verdict.status is Status.ENTAILED


def test_golden_bakery_chain_verifies():
    chain = fixtures.bakery_correct()
    report = verify_chain(chain)
    assert report.valid, report.failures
    assert len(chain.steps) == 7


def test_golden_navigator_chain_verifies():
    chain = fixtures.navigator_correct()
    report = verify_chain(chain)
    assert report.valid, report.failures


def test_deleting_bridge_step_invalidates_chain():
    chain = fixtures.bakery_correct()
    steps = chain.steps[:3] + tuple(
        Step(i + 4, s.supports, s.rule, s.conclusion)
        for i, s in enumerate(chain.steps[4:])
    )
    broken = CorrectChain(chain.base_facts, chain.rules, steps, chain.goal)
    report = verify_chain(broken)
    assert not report.valid
    assert any("support not established" in f for f in report.failures)


def test_converse_citation_invalidates_chain():
    # a one-step chain applying an implication in the converse direction
    rule = parse_rule("[F0] -> [F1]")
    steps = (Step(1, (parse_literal("[F1]=True"),), rule, parse_literal("[F0]=True")),)
    chain = CorrectChain(
        base_facts=(parse_literal("[F1]=True"),),
        rules=(rule,),
        steps=steps,
        goal=parse_literal("[F0]=True"),
    )
    report = verify_chain(chain)
    assert not report.valid
    assert any("no licensed pattern" in f for f in report.failures)


def _semantic(theory, prefix_state, step) -> bool:
    return "not entailed by prefix" not in Prefix(theory, prefix_state.literals()).check(step)


def test_check_step_semantic_golden_final_step():
    chain = fixtures.bakery_correct()
    theory = chain.theory()
    assert _semantic(theory, chain.state_before(7), chain.steps[6])


def test_check_step_semantic_accepts_structurally_broken_but_entailed_step():
    # the corrupted consumer step is semantically entailed by its prefix even
    # though the bridge fact was never procedurally established
    inst = fixtures.bakery_instance()
    theory = inst.correct.theory()
    prefix = inst.correct.state_before(4)
    assert _semantic(theory, prefix, inst.erroneous.steps[3])


def test_check_step_semantic_rejects_contradicted_conclusion():
    chain = fixtures.bakery_correct()
    theory = chain.theory()
    bad = Step(7, chain.steps[6].supports, chain.steps[6].rule,
               parse_literal("[F0]=True"))
    assert not _semantic(theory, chain.state_before(7), bad)


def test_check_step_semantic_raises_on_inconsistent_prefix():
    # a theory-inconsistent prefix entails nothing: the check reports the
    # step as not entailed instead of raising
    chain = fixtures.bakery_correct()
    theory = chain.theory()
    bad_state = chain.state_before(7).with_literal(
        parse_literal("[F9]=False"), overwrite=True)
    assert _semantic(theory, bad_state, chain.steps[6]) is False


def test_topological_order_identity_on_valid_chains():
    cfg = SynthesisConfig()
    for seed in range(30):
        chain = synthesize_chain(cfg, seed)
        order = topological_order(chain.steps)
        assert order == list(range(1, len(chain.steps) + 1))
        assert order == oracle_topological(chain)


def test_topological_order_cycle_detected():
    r1 = parse_rule("[F0] -> [F1]")
    r2 = parse_rule("[F1] -> [F0]")
    steps = (
        Step(1, (parse_literal("[F1]=True"),), r2, parse_literal("[F0]=True")),
        Step(2, (parse_literal("[F0]=True"),), r1, parse_literal("[F1]=True")),
    )
    chain = CorrectChain((), (r1, r2), steps, parse_literal("[F1]=True"))
    with pytest.raises(ValueError):
        topological_order(chain.steps)


def test_supports_list_known_rule_facts_in_slot_order():
    cfg = SynthesisConfig()
    for seed in range(40):
        chain = synthesize_chain(cfg, seed)
        state = chain.base_state()
        for step in chain.steps:
            expected = tuple(
                Literal(f, bool(state.value_of(f)))
                for f in step.rule.facts()
                if f != step.conclusion.fact and f in state.facts()
            )
            assert step.supports == expected
            state = state.with_literal(step.conclusion)


def test_synthesis_exhaustion_reports():
    from counterchain import SynthesisExhausted
    starved = SynthesisConfig(max_facts=1, max_attempts=5)
    with pytest.raises(SynthesisExhausted):
        synthesize_chain(starved, seed=0)


def test_template_weight_zero_excludes_template():
    from counterchain import RuleTemplate
    weights = tuple((t, 0.0 if t is RuleTemplate.XOR_BARE else 1.0)
                    for t in RuleTemplate)
    cfg = SynthesisConfig(template_weights=weights, side_steps=(0, 0))
    chain = synthesize_chain(cfg, seed=5)
    assert all(s.rule.template is not RuleTemplate.XOR_BARE for s in chain.steps)
