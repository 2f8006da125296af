from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counterchain import (
    CorpusConfig,
    DownstreamStuck,
    ErrorGroup,
    ErrorType,
    InjectionInfeasible,
    Instance,
    Literal,
    Status,
    Step,
    applicable_errors,
    entails,
    inject,
    parse_literal,
    parse_rule,
    recompute_downstream,
    verify_first_error,
)
from counterchain.dataset import build_instance
from counterchain.injection import ROWS, k_positions, spare_implications
from counterchain.prover import match_pattern
from counterchain.synthesis import CorrectChain, SynthesisConfig, SynthesisExhausted, synthesize_chain

from . import fixtures


def _built(target: ErrorType, count: int = 5, seed: int = 3) -> list[Instance]:
    """``count`` instances of ``target`` from the corpus generation loop."""
    cfg = CorpusConfig(total_count=count, seed=seed)
    return [build_instance(cfg, index, target)[0] for index in range(count)]


def _mk_step(index, supports, rule, conclusion):
    return Step(index, tuple(parse_literal(s) for s in supports),
                parse_rule(rule), parse_literal(conclusion))


def _drop_card_chain() -> CorrectChain:
    """Three steps ending in a bare-xor goal; step 2 is a compound-consequent
    modus tollens, the shape the drop corruption targets."""
    rules = tuple(parse_rule(r) for r in [
        "[F7] xor [F8]",
        "[F2] -> ([F6] and [F7])",
        "[F2] xor [F3]",
    ])
    steps = (
        _mk_step(1, ["[F7]=True"], "[F7] xor [F8]", "[F8]=False"),
        _mk_step(2, ["[F6]=False", "[F7]=True"],
                 "[F2] -> ([F6] and [F7])", "[F2]=False"),
        _mk_step(3, ["[F2]=False"], "[F2] xor [F3]", "[F3]=True"),
    )
    return CorrectChain(
        base_facts=(parse_literal("[F6]=False"), parse_literal("[F7]=True")),
        rules=rules,
        steps=steps,
        goal=parse_literal("[F3]=True"),
    )


def test_applicable_errors_on_xor_step():
    chain = fixtures.navigator_correct()
    assert ErrorType.XOR_AS_EQUIV in applicable_errors(chain, 7)


def test_applicable_errors_on_impl_step_card():
    chain = _drop_card_chain()
    out = applicable_errors(chain, 2)
    assert ErrorType.DROP_CONDITION in out
    assert ErrorType.OR_AND_CONFUSION not in out


def test_applicable_errors_impl_includes_converse_and_misuse():
    rules = (parse_rule("[F0] -> [F5]"), parse_rule("[F5] xor [F6]"))
    steps = (
        _mk_step(1, ["[F5]=False"], "[F0] -> [F5]", "[F0]=False"),
        _mk_step(2, ["[F5]=False"], "[F5] xor [F6]", "[F6]=True"),
    )
    chain = CorrectChain((parse_literal("[F5]=False"),), rules, steps,
                         parse_literal("[F6]=True"))
    out = applicable_errors(chain, 1)
    assert ErrorType.IMPLICATION_MISUSE in out
    assert ErrorType.CONVERSE_ERROR in out
    assert ErrorType.OR_AND_CONFUSION not in out


def test_first_position_excludes_prefix_dependent_types():
    chain = fixtures.bakery_correct()
    out = applicable_errors(chain, 1)
    assert ErrorType.MISSING_PREREQUISITE not in out
    assert ErrorType.REDUNDANT_STEP not in out


def test_inject_missing_prerequisite_reproduces_golden_instance():
    chain = fixtures.bakery_correct()
    golden = fixtures.bakery_instance()
    err = inject(chain, 4, ErrorType.MISSING_PREREQUISITE, seed=0)
    assert len(err.steps) == 6
    assert err.first_error_index == 4
    for got, want in zip(err.steps, golden.erroneous.steps):
        assert got.content_equals(want), (got, want)


def test_inject_xor_as_equiv_reproduces_golden_instance():
    chain = fixtures.navigator_correct()
    golden = fixtures.navigator_instance()
    err = inject(chain, 7, ErrorType.XOR_AS_EQUIV, seed=0)
    assert err.steps[-1].conclusion == parse_literal("[F1]=False")
    for got, want in zip(err.steps, golden.erroneous.steps):
        assert got.content_equals(want)


def test_inject_drop_condition_flips_conclusion_and_propagates():
    chain = _drop_card_chain()
    err = inject(chain, 2, ErrorType.DROP_CONDITION, seed=0)
    assert err.steps[1].conclusion == parse_literal("[F2]=True")
    assert err.steps[1].supports == chain.steps[1].supports
    # the xor consumer re-derives under the corrupted state
    assert err.steps[2].conclusion == parse_literal("[F3]=False")
    inst = Instance(id="t", correct=chain, erroneous=err)
    assert verify_first_error(inst).ok


def test_recompute_empty_after_last_step():
    chain = fixtures.navigator_correct()
    corrupted = chain.steps[:6] + (
        _mk_step(7, ["[F0]=False"], "[F0] xor [F1]", "[F1]=False"),)
    assert recompute_downstream(chain, corrupted) == []


def test_recompute_rederives_via_same_pattern():
    chain = _drop_card_chain()
    corrupted = (chain.steps[0],
                 _mk_step(2, ["[F6]=False", "[F7]=True"],
                          "[F2] -> ([F6] and [F7])", "[F2]=True"))
    out = recompute_downstream(chain, corrupted)
    assert len(out) == 1
    assert out[0].conclusion == parse_literal("[F3]=False")


def test_recompute_stuck_when_consumer_premises_gone():
    # corrupt a fact consumed by an implication: no licensed pattern applies
    rules = (parse_rule("[F0] xor [F1]"), parse_rule("[F1] -> [F2]"))
    steps = (
        _mk_step(1, ["[F0]=False"], "[F0] xor [F1]", "[F1]=True"),
        _mk_step(2, ["[F1]=True"], "[F1] -> [F2]", "[F2]=True"),
    )
    chain = CorrectChain((parse_literal("[F0]=False"),), rules, steps,
                         parse_literal("[F2]=True"))
    corrupted = (_mk_step(1, ["[F0]=False"], "[F0] xor [F1]", "[F1]=False"),)
    with pytest.raises(DownstreamStuck):
        recompute_downstream(chain, corrupted)


def test_verify_accepts_golden_instances():
    for inst in (fixtures.bakery_instance(), fixtures.navigator_instance()):
        report = verify_first_error(inst)
        assert report.ok, report.failures


def test_verify_rejects_still_derivable_corruption():
    # hand-build an instance whose "corrupted" conclusion is entailed
    rule = parse_rule("[F0] -> [F1]")
    xor = parse_rule("[F1] xor [F2]")
    steps = (
        _mk_step(1, ["[F0]=True"], "[F0] -> [F1]", "[F1]=True"),
        _mk_step(2, ["[F1]=True"], "[F1] xor [F2]", "[F2]=False"),
    )
    chain = CorrectChain((parse_literal("[F0]=True"),), (rule, xor), steps,
                         parse_literal("[F2]=False"))
    from counterchain import ErroneousChain
    err = ErroneousChain(steps=steps, first_error_index=1,
                         error_type=ErrorType.PARTIAL_EVALUATION)
    inst = Instance(id="t", correct=chain, erroneous=err)
    report = verify_first_error(inst)
    assert not report.ok
    assert any("still-derivable" in f for f in report.failures)


def test_verify_rejects_wrong_k():
    inst = fixtures.bakery_instance()
    shifted = Instance(
        id=inst.id, correct=inst.correct,
        erroneous=type(inst.erroneous)(
            steps=inst.erroneous.steps,
            first_error_index=5,
            error_type=inst.error_type,
        ))
    report = verify_first_error(shifted)
    assert not report.ok


def test_redundant_step_inserts_duplicate():
    chain = fixtures.bakery_correct()
    err = inject(chain, 3, ErrorType.REDUNDANT_STEP, seed=1)
    assert len(err.steps) == len(chain.steps) + 1
    dup = err.steps[2]
    assert any(dup.content_equals(s) for s in chain.steps[:2])
    for got, want in zip(err.steps[3:], chain.steps[2:]):
        assert got.content_equals(want)
    inst = Instance(id="t", correct=chain, erroneous=err)
    assert verify_first_error(inst).ok


def test_truth_state_corruptions_never_derivable():
    checked = 0
    for e in ErrorType:
        if e.group is not ErrorGroup.TRUTH_STATE:
            continue
        for inst in _built(e, count=2):
            prefix = inst.correct.state_before(inst.k)
            corrupted = inst.erroneous.steps[inst.k - 1].conclusion
            verdict = entails(inst.correct.theory(), prefix, corrupted)
            assert verdict.status is Status.NOT_ENTAILED
            checked += 1
    assert checked >= 10


def test_prefix_equality_on_generated_instances():
    for e in ErrorType:
        for inst in _built(e, count=2):
            for t in range(inst.k - 1):
                assert inst.erroneous.steps[t].content_equals(inst.correct.steps[t])


def test_vacuous_truth_uses_spare_implication_and_overwrites():
    for inst in _built(ErrorType.VACUOUS_TRUTH_ERROR):
        step = inst.erroneous.steps[inst.k - 1]
        assert step.rule in spare_implications(inst.correct)
        a, b = step.rule.facts()
        assert step.supports == (Literal(a, False),)
        assert step.conclusion == Literal(b, False)
        # the overwritten fact was established true in the prefix
        assert inst.correct.state_before(inst.k).holds(Literal(b, True))


def test_converse_cites_established_consequent():
    for inst in _built(ErrorType.CONVERSE_ERROR):
        step = inst.erroneous.steps[inst.k - 1]
        assert match_pattern(step.rule, step.supports, step.conclusion) is None


def test_circular_reference_creates_mutual_support():
    for inst in _built(ErrorType.CIRCULAR_REFERENCE):
        k = inst.k
        step = inst.erroneous.steps[k - 1]
        cited = set(step.supports) - set(inst.correct.steps[k - 1].supports)
        assert len(cited) == 1
        (future,) = cited
        later = [s for s in inst.erroneous.steps[k:] if s.conclusion == future]
        assert later and step.conclusion in later[0].supports


def test_or_and_confusion_contradicts_established_support():
    for inst in _built(ErrorType.OR_AND_CONFUSION):
        step = inst.erroneous.steps[inst.k - 1]
        prefix = inst.correct.state_before(inst.k)
        assert prefix.holds(step.conclusion.negated())


def test_infeasible_injection_raises():
    chain = fixtures.bakery_correct()
    with pytest.raises(InjectionInfeasible):
        inject(chain, 1, ErrorType.MISSING_PREREQUISITE, seed=0)


def test_k_positions_default_excludes_endpoints():
    cfg = CorpusConfig(total_count=1, seed=0)
    assert k_positions(7, cfg.k_first, cfg.k_exclude_last) == [2, 3, 4, 5, 6]
    assert k_positions(7, 1, False) == [1, 2, 3, 4, 5, 6, 7]


# ---------------------------------------------------------------------------
# every site a row admits either injects into an instance the verifier
# accepts, or is refused by ``inject`` itself


@st.composite
def _synthesis_configs(draw):
    lo = draw(st.integers(3, 12))
    return SynthesisConfig(
        step_count=(lo, draw(st.integers(lo, 12))),
        max_facts=draw(st.integers(8, 20)),
        side_steps=(0, draw(st.integers(0, 4))),
        spare_impl_rules=draw(st.integers(0, 4)),
        p_cycle_slot=draw(st.floats(0.0, 1.0)),
        distractor_rules=draw(st.integers(0, 3)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_synthesis_configs(), st.integers(0, 2 ** 63 - 1))
def test_every_admitted_site_injects_verifiably_or_is_refused(cfg, seed):
    try:
        chain = synthesize_chain(cfg, seed)
    except SynthesisExhausted:
        return
    for e, row in ROWS.items():
        for k in k_positions(len(chain.steps), 2, True):
            if not row.applies(chain, k):
                continue
            try:
                err = inject(chain, k, e, seed=seed ^ k)
            except (InjectionInfeasible, DownstreamStuck):
                continue
            inst = Instance(id="prop", correct=chain, erroneous=err)
            report = verify_first_error(inst)
            assert report.ok, (e.value, k, report.failures)


@pytest.mark.parametrize("seed, index", [(11, 1488), (5, 1318), (5, 1837)])
def test_missing_prerequisite_disagreements_are_refused_at_injection(seed, index):
    """Indices where the consumer's other pattern still had every premise,
    so the verifier refused what injection produced; ``inject`` now refuses
    those sites itself, and the corpus bytes stay."""
    cfg = CorpusConfig(seed=seed, total_count=2000)
    _, reasons = build_instance(cfg, index, ErrorType.MISSING_PREREQUISITE)
    assert reasons.get("infeasible", 0) >= 1, reasons
    assert not any(r.startswith("structural predicate failed") for r in reasons), reasons
