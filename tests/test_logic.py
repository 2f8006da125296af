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
    ExprSyntaxError,
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
    parse_expr,
    parse_literal,
    parse_rule,
    render_expr,
    render_rule,
)
from counterchain.logic import (
    PARSE_CACHE_SIZE,
    TEMPLATES,
    Implication,
    StateConflictError,
    make_rule,
)

F = FactId


def test_parse_compound_conjunction():
    assert parse_expr("([F6] and [F7])") == And(Atom(F(6)), Atom(F(7)))


def test_parse_single_atom():
    assert parse_expr("[F0]") == Atom(F(0))


def test_parse_double_bracket_alias():
    assert parse_expr("[[F3]]") == Atom(F(3))
    assert parse_expr("([[F1]] and [F2])") == And(Atom(F(1)), Atom(F(2)))


def test_unbalanced_input_reports_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("([F3] xor")
    assert err.value.offset == 9


def test_empty_and_garbage_inputs():
    with pytest.raises(ExprSyntaxError):
        parse_expr("")
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("[F1] nope [F2]")
    assert err.value.offset == 5


def test_precedence_xor_tighter_than_and_tighter_than_or():
    e = parse_expr("[F0] or [F1] and [F2] xor [F3]")
    assert e == Or(Atom(F(0)), And(Atom(F(1)), Xor(Atom(F(2)), Atom(F(3)))))


def test_left_associativity():
    e = parse_expr("[F0] and [F1] and [F2]")
    assert e == And(And(Atom(F(0)), Atom(F(1))), Atom(F(2)))


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
    assert render_expr(And(Atom(F(6)), Atom(F(7)))) == "([F6] and [F7])"
    assert render_rule(make_rule(XorConstraint(F(9), F(12)))) == "[F9] xor [F12]"
    assert render_rule(parse_rule("[F2] -> ([F6] and [F7])")) == "[F2] -> ([F6] and [F7])"


def _random_rule(rng: random.Random):
    template = rng.choice(list(RuleTemplate))
    facts = rng.sample(range(40), 3)
    a, b, c = (Atom(F(i)) for i in facts)
    shapes = {
        RuleTemplate.IMPL: lambda: Implication(a, b),
        RuleTemplate.AND_ANTE: lambda: Implication(And(a, b), c),
        RuleTemplate.AND_CONS: lambda: Implication(a, And(b, c)),
        RuleTemplate.OR_ANTE: lambda: Implication(Or(a, b), c),
        RuleTemplate.OR_CONS: lambda: Implication(a, Or(b, c)),
        RuleTemplate.XOR_ANTE: lambda: Implication(Xor(a, b), c),
        RuleTemplate.XOR_BARE: lambda: XorConstraint(F(facts[0]), F(facts[1])),
    }
    return make_rule(shapes[template]())


def test_rule_round_trip_1000_random():
    rng = random.Random(20240817)
    for _ in range(1000):
        rule = _random_rule(rng)
        assert parse_rule(render_rule(rule)) == rule


@pytest.mark.parametrize("template", list(RuleTemplate), ids=lambda t: t.value)
def test_template_table_round_trip(template):
    # slot order differs from index order, so a swapped slot would show
    rule = Rule(template, (F(5), F(2), F(9))[:TEMPLATES[template][0]])
    assert make_rule(rule.shape) == rule
    assert hash(make_rule(rule.shape)) == hash(rule)
    assert parse_rule(render_rule(rule)) == rule
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


_exprs = st.recursive(
    st.integers(min_value=0, max_value=5).map(lambda i: Atom(F(i))),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda ab: And(*ab)),
        st.tuples(inner, inner).map(lambda ab: Or(*ab)),
        st.tuples(inner, inner).map(lambda ab: Xor(*ab)),
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(_exprs)
def test_expr_render_parse_round_trip(expr):
    assert parse_expr(render_expr(expr)) == expr


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
    (parse_rule, "[F1] ->", ExprSyntaxError),
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
