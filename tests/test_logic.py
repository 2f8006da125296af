from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counterchain import (
    And,
    Atom,
    CorpusConfig,
    FactId,
    Literal,
    Or,
    Rule,
    RuleShapeError,
    RuleTemplate,
    State,
    TruthValue,
    Xor,
    XorConstraint,
    generate_corpus,
    parse_literal,
    parse_rule,
    render_rule,
)
from counterchain.logic import (
    PARSE_CACHE_SIZE,
    TEMPLATES,
    Implication,
    StateConflictError,
)

F = FactId


def test_parse_compound_conjunction():
    rule = parse_rule("[F2] -> ([F6] and [F7])")
    assert rule == Rule(RuleTemplate.AND_CONS, (F(2), F(6), F(7)))
    assert rule.shape == Implication(Atom(F(2)), And(Atom(F(6)), Atom(F(7))))


def test_parse_single_atom():
    # an atom alone is no rule; index 0 and a trailing zero are no leading zero
    with pytest.raises(RuleShapeError):
        parse_rule("[F0]")
    assert parse_rule("[F0] -> [F10]").slots == (F(0), F(10))


def test_empty_and_garbage_inputs():
    for text in ("", " ", "[F1] nope [F2]", "->", "[F1] -> [F2] -> [F3]"):
        with pytest.raises(RuleShapeError):
            parse_rule(text)


# Each turns a canonical text, whose first slot is ``[F<a>]``, into a variant
# that is not canonical, or leaves a text with nothing to change as it is.
_NON_CANONICAL = {
    "double-brackets": lambda t, a: t.replace(f"[F{a}]", f"[[F{a}]]"),
    "extra-space": lambda t, a: t.replace(" ", "  ", 1),
    "leading-space": lambda t, a: " " + t,
    "trailing-space": lambda t, a: t + " ",
    "missing-space": lambda t, a: t.replace(" ", "", 1),
    "extra-parens": lambda t, a: f"({t})",
    "parenthesized-atom": lambda t, a: t.replace(f"[F{a}]", f"([F{a}])"),
    "missing-parens": lambda t, a: t.replace("(", "").replace(")", ""),
    "unbalanced-paren": lambda t, a: t.replace(")", "", 1),
    "leading-zero": lambda t, a: t.replace(f"[F{a}]", f"[F0{a}]"),
    "non-ascii-digit": lambda t, a: t.replace(f"[F{a}]", f"[F{a}\u0661]"),
    "upper-case-operator": lambda t, a: (t.replace(" and ", " AND ").replace(" or ", " OR ")
                                         .replace(" xor ", " XOR ")),
    "wrong-operator-word": lambda t, a: (t.replace(" and ", " nand ").replace(" or ", " nor ")
                                         .replace(" xor ", " xnor ").replace(" -> ", " => ")),
    "trailing-text": lambda t, a: t + ".",
    "trailing-clause": lambda t, a: t + " and [F40]",
}


@pytest.mark.parametrize("variant", list(_NON_CANONICAL))
def test_parse_rule_rejects_non_canonical_text(variant):
    rng = random.Random(variant)
    changed = 0
    for template, (arity, _) in TEMPLATES.items():
        slots = tuple(map(F, rng.sample(range(1, 40), arity)))
        text = render_rule(Rule(template, slots))
        assert parse_rule(text) == Rule(template, slots)
        bad = _NON_CANONICAL[variant](text, int(slots[0]))
        if bad != text:
            changed += 1
            with pytest.raises(RuleShapeError):
                parse_rule(bad)
    assert changed >= 4


def test_parse_rule_xor_ante():
    rule = parse_rule("([F3] xor [F5]) -> [F6]")
    assert rule.template is RuleTemplate.XOR_ANTE
    assert rule.facts() == (F(3), F(5), F(6))


def test_parse_rule_bare_xor():
    rule = parse_rule("[F9] xor [F12]")
    assert rule.template is RuleTemplate.XOR_BARE
    assert isinstance(rule.shape, XorConstraint)


def test_parse_rule_rejects_bare_conjunction():
    with pytest.raises(RuleShapeError):
        parse_rule("[F1] and [F2]")


def test_parse_rule_rejects_nested_implication():
    with pytest.raises(RuleShapeError):
        parse_rule("[F1] -> [F2] -> [F3]")


def test_parse_rule_rejects_repeated_slot():
    with pytest.raises(RuleShapeError):
        parse_rule("[F1] -> [F1]")


def test_all_seven_templates_parse():
    cases = {
        "[F0] -> [F1]": RuleTemplate.IMPL,
        "([F0] and [F1]) -> [F2]": RuleTemplate.AND_ANTE,
        "[F0] -> ([F1] and [F2])": RuleTemplate.AND_CONS,
        "([F0] or [F1]) -> [F2]": RuleTemplate.OR_ANTE,
        "[F0] -> ([F1] or [F2])": RuleTemplate.OR_CONS,
        "([F0] xor [F1]) -> [F2]": RuleTemplate.XOR_ANTE,
        "[F0] xor [F1]": RuleTemplate.XOR_BARE,
    }
    for text, template in cases.items():
        assert parse_rule(text).template is template


def test_render_canonical_forms():
    assert render_rule(Rule(RuleTemplate.AND_ANTE, (F(6), F(7), F(0)))) == \
        "([F6] and [F7]) -> [F0]"
    assert render_rule(Rule(RuleTemplate.XOR_BARE, (F(9), F(12)))) == "[F9] xor [F12]"
    assert render_rule(parse_rule("[F2] -> ([F6] and [F7])")) == "[F2] -> ([F6] and [F7])"


def _random_rule(rng: random.Random) -> Rule:
    template = rng.choice(list(RuleTemplate))
    facts = rng.sample(range(40), TEMPLATES[template][0])
    return Rule(template, tuple(map(F, facts)))


def test_rule_round_trip_1000_random():
    rng = random.Random(20240817)
    for _ in range(1000):
        rule = _random_rule(rng)
        assert parse_rule(render_rule(rule)) == rule


_A, _B, _C = Atom(F(5)), Atom(F(2)), Atom(F(9))
_EXPECTED_SHAPES = {
    RuleTemplate.IMPL: Implication(_A, _B),
    RuleTemplate.AND_ANTE: Implication(And(_A, _B), _C),
    RuleTemplate.AND_CONS: Implication(_A, And(_B, _C)),
    RuleTemplate.OR_ANTE: Implication(Or(_A, _B), _C),
    RuleTemplate.OR_CONS: Implication(_A, Or(_B, _C)),
    RuleTemplate.XOR_ANTE: Implication(Xor(_A, _B), _C),
    RuleTemplate.XOR_BARE: XorConstraint(F(5), F(2)),
}


@pytest.mark.parametrize("template", list(RuleTemplate), ids=lambda t: t.value)
def test_template_table_round_trip(template):
    # slot order differs from index order, so a swapped slot would show
    rule = Rule(template, (F(5), F(2), F(9))[:TEMPLATES[template][0]])
    assert rule.shape == _EXPECTED_SHAPES[template]
    assert parse_rule(render_rule(rule)) == rule
    assert hash(parse_rule(render_rule(rule))) == hash(rule)
    assert rule.facts() == rule.slots


@pytest.mark.parametrize("template", list(RuleTemplate), ids=lambda t: t.value)
def test_rule_rejects_wrong_slot_count_and_repeated_slot(template):
    arity = TEMPLATES[template][0]
    for count in (arity - 1, arity + 1):
        with pytest.raises(RuleShapeError):
            Rule(template, tuple(F(i) for i in range(count)))
    with pytest.raises(RuleShapeError):
        Rule(template, tuple(F(i) for i in range(arity - 1)) + (F(0),))


def test_literal_round_trip():
    lit = Literal(F(2), False)
    assert str(lit) == "[F2]=False"
    assert parse_literal(str(lit)) == lit
    with pytest.raises(ValueError):
        parse_literal("[F2]=Unknown")


def test_state_refuses_silent_flip():
    s = State({F(0): True})
    with pytest.raises(StateConflictError):
        s.with_literal(Literal(F(0), False))
    flipped = s.with_literal(Literal(F(0), False), overwrite=True)
    assert flipped.value_of(F(0)) is TruthValue.FALSE
    assert s.value_of(F(0)) is TruthValue.TRUE  # original untouched


_rules = st.sampled_from(list(RuleTemplate)).flatmap(
    lambda t: st.lists(st.integers(min_value=0, max_value=10**12),
                       min_size=TEMPLATES[t][0], max_size=TEMPLATES[t][0],
                       unique=True).map(lambda facts: Rule(t, tuple(map(F, facts)))))


@settings(max_examples=200, deadline=None)
@given(_rules)
def test_rule_render_parse_round_trip(rule):
    assert parse_rule.__wrapped__(render_rule(rule)) == rule


def _corpus_texts(tmp_path) -> tuple[set[str], set[str]]:
    """Every rule text and every literal text of a generated corpus."""
    path = tmp_path / "c.jsonl"
    generate_corpus(CorpusConfig(total_count=20, seed=3), str(path))
    rules, literals = set(), set()
    for line in path.read_text().splitlines()[1:]:
        record = json.loads(line)
        rules.update(record["rules"])
        literals.add(record["goal"])
        literals.update(record["base_facts"])
        for step in record["correct_steps"] + record["erroneous_steps"]:
            rules.add(step["rule"])
            literals.add(step["conclusion"])
            literals.update(step["supports"])
    return rules, literals


def test_parse_memo_agrees_with_uncached_parse(tmp_path):
    rules, literals = _corpus_texts(tmp_path)
    assert len(rules) > 50 and len(literals) > 10
    for text in rules:
        assert parse_rule(text) == parse_rule.__wrapped__(text)
        assert parse_rule(text) == parse_rule.__wrapped__(text)  # now a hit
    for text in literals:
        assert parse_literal(text) == parse_literal.__wrapped__(text)
        assert parse_literal(text) == parse_literal.__wrapped__(text)


@pytest.mark.parametrize("parse, text, error", [
    (parse_rule, "[F1] ->", RuleShapeError),
    (parse_rule, "[F1] -> [F1]", RuleShapeError),
    (parse_rule, "[F1] or [F2]", RuleShapeError),
    (parse_literal, "[F1]=Maybe", ValueError),
])
def test_parse_memo_does_not_cache_errors(parse, text, error):
    for _ in range(2):
        with pytest.raises(error):
            parse(text)


def test_parse_memo_is_bounded():
    for parse in (parse_rule, parse_literal):
        assert parse.cache_info().maxsize == PARSE_CACHE_SIZE
    assert 0 < PARSE_CACHE_SIZE < 1 << 16
