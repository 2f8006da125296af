"""The value types: ``FactId`` is an ``int`` and ``Literal`` a ``(fact, value)``
tuple, so both hash and compare in C. They keep the constructors, text forms,
order and pickling they had as frozen dataclasses.

``match_pattern`` compares the rule's slots with the conclusion before it
looks at the supports; the version it replaced, which bound every candidate
pattern to ``Literal``s, is kept here as the reference.
"""

from __future__ import annotations

import itertools
import pickle

import pytest

from counterchain.logic import (
    TEMPLATES,
    FactId,
    Literal,
    Rule,
    RuleTemplate,
    State,
    parse_literal,
    parse_rule,
    render_rule,
)
from counterchain.prover import _CATALOG, licensed_patterns, match_pattern
from counterchain.synthesis import Step


def ref_match_pattern(rule, supports, conclusion):
    supports = set(supports)
    for pattern in licensed_patterns(rule):
        if pattern.bind_derived(rule) != conclusion:
            continue
        if all(p in supports for p in pattern.bind_premises(rule)):
            return pattern
    return None


@pytest.mark.parametrize("bad, error", [(-1, ValueError), ("3", TypeError),
                                        (2.0, TypeError)])
def test_fact_id_refuses_what_is_not_an_index(bad, error):
    with pytest.raises(error):
        FactId(bad)


def test_text_forms():
    fact = FactId(3)
    assert (str(fact), repr(fact)) == ("[F3]", "FactId(index=3)")
    assert fact.index == 3 and type(fact.index) is int
    assert FactId(index=3) == fact
    lit = Literal(fact, True)
    assert str(lit) == "[F3]=True"
    assert repr(lit) == "Literal(fact=FactId(index=3), value=True)"
    assert lit.negated() == Literal(fact, False)
    assert parse_literal("[F3]=True") == lit
    assert "{0} -> {1}".format(FactId(0), FactId(12)) == "[F0] -> [F12]"
    assert f"{FactId(7)}" == "[F7]"


def test_order_is_the_index_order():
    facts = [FactId(i) for i in (10, 2, 7, 0, 23)]
    assert [f.index for f in sorted(facts)] == [0, 2, 7, 10, 23]
    assert max(facts) == FactId(23)
    state = State({FactId(10): True, FactId(2): False, FactId(7): True})
    assert [str(l) for l in state.literals()] == ["[F2]=False", "[F7]=True", "[F10]=True"]


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip_keeps_types(protocol):
    rule = Rule(RuleTemplate.AND_ANTE, (FactId(0), FactId(1), FactId(2)))
    step = Step(1, (Literal(FactId(0), True), Literal(FactId(1), True)), rule,
                Literal(FactId(2), True))
    for value in (FactId(5), Literal(FactId(5), False), rule, step):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert back == value and type(back) is type(value)
    back = pickle.loads(pickle.dumps(step, protocol))
    assert type(back.conclusion) is Literal and type(back.conclusion.fact) is FactId
    assert all(type(f) is FactId for f in back.rule.slots)
    assert all(type(l) is Literal for l in back.supports)


@pytest.mark.parametrize("template", list(RuleTemplate), ids=lambda t: t.value)
def test_canonical_text_round_trips(template):
    arity, form = TEMPLATES[template]
    text = form.format(*(FactId(i) for i in (3, 11, 0)[:arity]))
    assert render_rule(parse_rule(text)) == text


@pytest.mark.parametrize("template", list(RuleTemplate), ids=lambda t: t.value)
def test_match_pattern_agrees_with_the_binding_reference(template):
    """Every catalog pattern's concluded fact, and one fact off the rule, with
    both values, against every subset of the literals on the rule's slots."""
    rule = Rule(template, tuple(FactId(i) for i in (4, 1, 9)[:TEMPLATES[template][0]]))
    known = [Literal(f, v) for f in rule.slots for v in (False, True)]
    concluded = {rule.slots[p.derived[0]] for p in _CATALOG[template]} | {FactId(20)}
    matched = set()
    for fact, value in itertools.product(sorted(concluded), (False, True)):
        conclusion = Literal(fact, value)
        for size in range(len(known) + 1):
            for supports in itertools.combinations(known, size):
                got = match_pattern(rule, iter(supports), conclusion)
                assert got == ref_match_pattern(rule, supports, conclusion)
                matched.add(got)
    assert matched - {None} == set(_CATALOG[template])
