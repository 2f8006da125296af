"""Tampering with one field of a generated record makes ``verify`` fail it.

Each tamper is applied to every record of a generated corpus that admits it,
at the API level, and the record is checked as ``counterchain verify`` checks
it: ``verify_chain``, ``verify_first_error`` and the stored derived fields.
The count of failing records must equal the count of tampered ones. The one
tamper that passes by construction, an ``xor_as_or``/``xor_as_equiv``
relabel, has its own test.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from counterchain import CorpusConfig, ErrorType, Rule, RuleTemplate
from counterchain.dataset import deserialize_instance, generate_instances, stored_field_mismatches
from counterchain.injection import ROWS, verify_first_error
from counterchain.prover import match_pattern
from counterchain.synthesis import verify_chain

XOR_TWINS = {ErrorType.XOR_AS_OR: ErrorType.XOR_AS_EQUIV,
             ErrorType.XOR_AS_EQUIV: ErrorType.XOR_AS_OR}


@pytest.fixture(scope="module")
def corpus():
    cfg = CorpusConfig(total_count=200, seed=5)
    return [deserialize_instance(line) for line, *_ in generate_instances(cfg)]


def _fails(inst) -> bool:
    return bool(verify_chain(inst.correct).failures or verify_first_error(inst).failures
                or stored_field_mismatches(inst))


def _relabelled(inst, e: ErrorType):
    return replace(inst, erroneous=replace(inst.erroneous, error_type=e))


def _replaced(steps, j, step):
    return steps[:j] + (step,) + steps[j + 1:]


def _without_a_non_premise_support(step):
    """``step`` without its first support that its applied pattern does not
    need, or None when every support is a premise."""
    premises = match_pattern(step.rule, step.supports, step.conclusion).bind_premises(step.rule)
    extra = next((l for l in step.supports if l not in premises), None)
    if extra is None:
        return None
    return replace(step, supports=tuple(l for l in step.supports if l != extra))


def _count(tampered) -> tuple[int, int]:
    tampered = list(tampered)
    return len(tampered), sum(_fails(inst) for inst in tampered)


def test_untampered_corpus_verifies(corpus):
    assert not any(_fails(inst) for inst in corpus)


def test_same_group_relabel_fails(corpus):
    """Every relabel to another type of the same group, but the xor twin."""
    pairs, tampered = set(), []
    for inst in corpus:
        for e in ErrorType:
            if e is inst.error_type or e.group is not inst.error_type.group \
                    or XOR_TWINS.get(inst.error_type) is e:
                continue
            pairs.add((inst.error_type, e))
            tampered.append(_relabelled(inst, e))
    # 7 truth-state types, 6 targets each, and 4 structural, 3 each, less the
    # two xor-twin directions
    assert len(pairs) == 7 * 6 + 4 * 3 - 2
    assert _count(tampered) == (len(tampered), len(tampered))


def test_xor_twin_relabel_passes(corpus):
    """Both xor types negate the conclusion, and every ``xor_as_or`` site
    admits ``xor_as_equiv``: an ``xor_as_or`` record relabelled passes, and
    an ``xor_as_equiv`` one passes exactly where ``xor_as_or`` applies too."""
    seen = dict.fromkeys(XOR_TWINS, 0)
    for inst in corpus:
        twin = XOR_TWINS.get(inst.error_type)
        if twin is None:
            continue
        seen[inst.error_type] += 1
        admits_both = ROWS[ErrorType.XOR_AS_OR].applies(inst.correct, inst.k)
        assert _fails(_relabelled(inst, twin)) is not admits_both, inst.id
    assert all(seen.values()), seen


def test_dropped_non_premise_support_in_a_continuation_step_fails(corpus):
    tampered = []
    for inst in corpus:
        steps, k = inst.erroneous.steps, inst.k
        for j in range(k, len(steps)):
            dropped = _without_a_non_premise_support(steps[j])
            if dropped is not None:
                err = replace(inst.erroneous, steps=_replaced(steps, j, dropped))
                tampered.append(replace(inst, erroneous=err))
                break
    assert len(tampered) > 20
    assert _count(tampered) == (len(tampered), len(tampered))


def test_foreign_continuation_rule_that_licenses_the_step_fails(corpus):
    """An IMPL continuation step ``a -> b`` cites ``(a or x) -> b`` instead,
    a rule not in the record, whose patterns still license the step."""
    tampered = []
    for inst in corpus:
        steps, k = inst.erroneous.steps, inst.k
        universe = inst.correct.theory().universe
        for j in range(k, len(steps)):
            step = steps[j]
            if step.rule.template is not RuleTemplate.IMPL:
                continue
            a, b = step.rule.slots
            x = next(f for f in universe if f not in (a, b))
            foreign = Rule(RuleTemplate.OR_ANTE, (a, x, b))
            assert foreign not in inst.correct.rules
            assert match_pattern(foreign, step.supports, step.conclusion) is not None
            err = replace(inst.erroneous, steps=_replaced(steps, j, replace(step, rule=foreign)))
            tampered.append(replace(inst, erroneous=err))
            break
    assert len(tampered) > 10
    assert _count(tampered) == (len(tampered), len(tampered))


def test_dropped_non_premise_support_in_a_correct_step_fails(corpus):
    """The first correct step with a support its pattern does not need loses
    it, in the erroneous prefix too when the step is before k."""
    tampered = []
    for inst in corpus:
        correct, err = inst.correct, inst.erroneous
        for j, step in enumerate(correct.steps):
            dropped = _without_a_non_premise_support(step)
            if dropped is None:
                continue
            chain = replace(correct, steps=_replaced(correct.steps, j, dropped))
            if j < inst.k - 1:
                err = replace(err, steps=_replaced(err.steps, j, dropped))
            tampered.append(replace(inst, correct=chain, erroneous=err))
            break
    assert len(tampered) > 20
    assert _count(tampered) == (len(tampered), len(tampered))

