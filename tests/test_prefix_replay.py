"""Prefix replay: the three prefix walks (``verify_chain``, the prefix loop of
``verify_first_error`` and ``OracleJudge.score_trajectory``) look the model
table up once, built with the state they start from fixed, and narrow its rows
step by step. The carried rows must equal the rows restricted from scratch at
every position, each decision must match the full table's, and the verdicts
the walks return must not depend on how the rows were obtained. The facts a
``Prefix`` holds after a chain's first k - 1 steps are the chain's own fold,
``CorrectChain.established_before(k)``."""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import replace

import pytest

from counterchain import (
    CorpusConfig,
    JudgeContext,
    OracleJudge,
    SynthesisConfig,
    verify_chain,
    verify_first_error,
)
from counterchain import synthesis
from counterchain.dataset import deserialize_instance, generate_instances
from counterchain.logic import State, StateConflictError
from counterchain.prover import ModelTable

from . import fixtures

WIDE = SynthesisConfig(step_count=(10, 12), max_facts=20)


def _generated(count: int, seed: int, cfg: SynthesisConfig = SynthesisConfig()):
    corpus = CorpusConfig(total_count=count, seed=seed, synthesis=cfg)
    return [deserialize_instance(line)
            for line, *_ in generate_instances(corpus)]


def _instances():
    out = [fixtures.bakery_instance(), fixtures.navigator_instance()]
    for seed in (1, 2, 3):
        out += _generated(6, seed)
    for seed in (4, 5):
        out += _generated(3, seed, WIDE)
    return out


def _tampered(inst):
    """The instance itself, then one variant per tampering of its chains."""
    yield "as-is", inst
    correct, err = inst.correct, inst.erroneous
    for j, step in enumerate(correct.steps):
        flipped = replace(step, conclusion=step.conclusion.negated())
        steps = correct.steps[:j] + (flipped,) + correct.steps[j + 1:]
        yield f"flip-correct-{j + 1}", replace(inst, correct=replace(correct, steps=steps))
    if len(correct.steps) > 1:
        swapped = (correct.steps[1], correct.steps[0]) + correct.steps[2:]
        yield "swap-correct-1-2", replace(inst, correct=replace(correct, steps=swapped))
    dropped = correct.base_facts[1:]
    yield "drop-base-fact", replace(inst, correct=replace(correct, base_facts=dropped))
    for shift in (-1, 1):
        moved = replace(err, first_error_index=err.first_error_index + shift)
        yield f"k{shift:+d}", replace(inst, erroneous=moved)
    k = err.first_error_index
    if k <= len(correct.steps):
        healed = replace(err.steps[k - 1], conclusion=correct.steps[k - 1].conclusion)
        steps = err.steps[:k - 1] + (healed,) + err.steps[k:]
        yield "heal-corrupted-step", replace(inst, erroneous=replace(err, steps=steps))


# each prefix walk on its own, by the key ``_walk_all`` reports it under
_WALKS = {
    "chain": lambda inst, judge, context: list(verify_chain(inst.correct).failures),
    "first_error": lambda inst, judge, context: list(verify_first_error(inst).failures),
    "scores_erroneous": lambda inst, judge, context:
        judge.score_trajectory(context, inst.erroneous.steps),
    "scores_correct": lambda inst, judge, context:
        judge.score_trajectory(context, inst.correct.steps),
}


def _walk_all(inst) -> dict:
    """What each prefix walk returns for ``inst``."""
    context = JudgeContext.for_instance(inst)
    judge = OracleJudge()
    return {name: walk(inst, judge, context) for name, walk in _WALKS.items()}


@pytest.fixture(scope="module")
def cases():
    return [(f"{inst.id}/{name}", variant)
            for inst in _instances() for name, variant in _tampered(inst)]


def test_carried_rows_equal_rows_restricted_from_scratch(cases, monkeypatch):
    mismatches, disagreements, calls = [], [], {}
    real = synthesis.Prefix.check
    walk_name = None
    # the full table over the whole universe, one theory at a time; built
    # outside ``model_table`` so the walks' own cache sees no extra keys
    full_table = functools.lru_cache(maxsize=1)(ModelTable)

    def spy(prefix, step):
        calls[walk_name] = calls.get(walk_name, 0) + 1
        theory = prefix.table.theory
        # the reference: the prefix's own table, rebuilt from scratch under
        # the literals it fixes, restricted by the whole prefix state
        fixed = tuple(prefix.table.fixed.items())
        if prefix.rows != ModelTable(theory, fixed).restrict_state(prefix.state):
            mismatches.append((walk_name, step.index))
        # folding the fixed literals into the table changes no decision: the
        # full table restricted by the same state gives the same status and
        # the same witness
        if step.conclusion.fact in theory.universe:
            full = full_table(theory)
            expected = full.decide(full.restrict_state(prefix.state), step.conclusion)
            if prefix.table.decide(prefix.rows, step.conclusion) != expected:
                disagreements.append((walk_name, step.index))
        return real(prefix, step)

    monkeypatch.setattr(synthesis.Prefix, "check", spy)
    judge = OracleJudge()
    # one walk at a time over every case, so each walk's calls are counted
    # on their own
    for walk_name, walk in _WALKS.items():
        for _, inst in cases:
            walk(inst, judge, JudgeContext.for_instance(inst))
    assert sorted(calls) == sorted(_WALKS)
    assert min(calls.values()) > len(cases)
    assert mismatches == []
    assert disagreements == []


def test_one_fold_gives_the_facts_before_each_step():
    """``CorrectChain.established_before`` is the one fold of a chain's base
    facts and earlier conclusions: ``state_before`` is it as a ``State``, and
    ``Prefix`` replayed over the same steps holds the same literals."""
    instances, checked = _instances(), 0
    for inst in instances:
        chain = inst.correct
        theory = chain.theory()
        for k in range(1, len(chain.steps) + 2):
            established = chain.established_before(k)
            assert chain.state_before(k) == State({l.fact: l.value for l in established})
            prefix = synthesis.Prefix(theory, chain.base_facts)
            assert prefix.replay(chain.steps[:k - 1]) == k - 1
            assert set(prefix.known.values()) == established
            checked += 1
    assert checked > 100
    # a fact stated with both values keeps both literals, and only the
    # ``State`` refuses the flip
    chain = instances[0].correct
    flipped = replace(chain, base_facts=chain.base_facts + (chain.base_facts[0].negated(),))
    assert {chain.base_facts[0], chain.base_facts[0].negated()} <= flipped.established_before(1)
    with pytest.raises(StateConflictError):
        flipped.state_before(1)


# sha256 of the canonical JSON of ``_walk_all`` over every case, in order; it
# was recorded with the rows restricted from scratch at every prefix step, so
# it pins the verdicts across changes to how the walks obtain their rows. The
# verdicts include ``Prefix.check``'s known-supports fault and the corruption
# and continuation checks of ``verify_first_error``
VERDICTS_SHA256 = "f9b6775843b0971b75dd68fc124462bf186e75a7a8ccd786806cde7f4803e0e2"


def test_walk_verdicts_pinned(cases):
    verdicts = {name: _walk_all(inst) for name, inst in cases}
    # the tamperings do reach every walk's failure paths
    assert any(v["chain"] for v in verdicts.values())
    assert any(not v["first_error"] for v in verdicts.values())
    assert any(v["first_error"] for v in verdicts.values())
    assert any(0.0 in v["scores_correct"] for v in verdicts.values())
    payload = json.dumps(verdicts, sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == VERDICTS_SHA256

