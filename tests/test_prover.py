from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counterchain import (
    FactId,
    Literal,
    Rule,
    RuleTemplate,
    State,
    Status,
    Theory,
    count_models,
    entails,
    licensed_patterns,
    parse_rule,
    propagate,
    theory_for,
)
from counterchain.logic import TEMPLATES
from counterchain.prover import (
    UNIVERSE_CAP,
    Direction,
    ModelTable,
    PropagationContradiction,
    UniverseTooLargeError,
    _column,
    match_pattern,
    patterns_deriving,
    verify_catalog,
)

from .oracles import oracle_count_models, oracle_entails, random_theory, rule_satisfied

F = FactId


def lit(text: str) -> Literal:
    from counterchain import parse_literal
    return parse_literal(text)


def th(*rules: str, extra=()) -> Theory:
    return theory_for([parse_rule(r) for r in rules], [F(i) for i in extra])


def test_count_models_single_implication():
    assert count_models(th("[F0] -> [F5]"), State()) == 3


def test_count_models_xor_forces_other_side():
    assert count_models(th("[F0] xor [F1]"), State({F(0): True})) == 1


def test_count_models_direct_violation():
    theory = th("[F0] -> [F1]")
    assert count_models(theory, State({F(0): True, F(1): False})) == 0


def test_count_models_free_facts_power_of_two():
    for n in (*range(0, 11), UNIVERSE_CAP):
        theory = Theory((), tuple(F(i) for i in range(n)))
        assert count_models(theory, State()) == 2 ** n
        if n:
            assert count_models(theory, State({F(n - 1): True})) == 2 ** (n - 1)


def test_columns_match_assignment_bits():
    for n in range(0, 10):
        for i in range(n):
            expected = sum(1 << a for a in range(1 << n) if (a >> i) & 1)
            assert _column(n, i) == expected


def test_universe_cap():
    with pytest.raises(UniverseTooLargeError):
        Theory((), tuple(F(i) for i in range(25)))


def test_entails_modus_tollens():
    result = entails(th("[F0] -> [F5]"), State({F(5): False}), lit("[F0]=False"))
    assert result.status is Status.ENTAILED


def test_entails_disjunctive_consequent():
    theory = th("[F7] -> ([F8] or [F5])")
    result = entails(theory, State({F(7): True, F(8): False}), lit("[F5]=True"))
    assert result.status is Status.ENTAILED


def test_entails_returns_countermodel():
    theory = th("[F2] -> ([F6] and [F7])")
    result = entails(theory, State({F(6): False, F(7): True}), lit("[F2]=True"))
    assert result.status is Status.NOT_ENTAILED
    witness = result.witness
    assert witness is not None
    assert witness.holds(lit("[F2]=False"))
    assert witness.holds(lit("[F6]=False"))
    assert witness.holds(lit("[F7]=True"))


def test_entails_inconsistent_state():
    theory = th("[F0] -> [F1]")
    result = entails(theory, State({F(0): True, F(1): False}), lit("[F0]=True"))
    assert result.status is Status.INCONSISTENT
    assert result.witness is None


def test_propagate_xor():
    theory = th("[F9] xor [F12]", extra=(9, 12))
    out = propagate(theory, State({F(12): False}))
    assert out.holds(lit("[F9]=True"))


def test_propagate_no_rules_identity():
    theory = Theory((), (F(0),))
    s = State({F(0): True})
    assert propagate(theory, s) == s


def test_propagate_contradiction_raises():
    theory = th("[F0] -> [F1]", "[F0] xor [F1]")
    with pytest.raises(PropagationContradiction):
        propagate(theory, State({F(0): True, F(1): False}))


def test_catalog_verifies_sound():
    assert verify_catalog()


def test_impl_patterns_exclude_converse():
    rule = parse_rule("[F0] -> [F1]")
    pats = licensed_patterns(rule)
    assert len(pats) == 2
    derived = {(p.bind_derived(rule), p.direction) for p in pats}
    assert (lit("[F1]=True"), Direction.FORWARD) in derived
    assert (lit("[F0]=False"), Direction.BACKWARD) in derived
    # converse: concluding the antecedent true from the consequent is absent
    assert match_pattern(rule, [lit("[F1]=True")], lit("[F0]=True")) is None


def test_xor_bare_patterns_both_directions():
    rule = parse_rule("[F0] xor [F1]")
    assert match_pattern(rule, [lit("[F0]=False")], lit("[F1]=True")) is not None
    assert match_pattern(rule, [lit("[F1]=True")], lit("[F0]=False")) is not None


def test_xor_ante_backward_equalizes_sides():
    rule = parse_rule("([F3] xor [F5]) -> [F6]")
    pat = match_pattern(rule, [lit("[F6]=False"), lit("[F5]=True")], lit("[F3]=True"))
    assert pat is not None and pat.direction is Direction.BACKWARD


def test_match_allows_extra_known_supports():
    rule = parse_rule("([F3] or [F4]) -> [F1]")
    pat = match_pattern(rule, [lit("[F3]=True"), lit("[F4]=False")], lit("[F1]=True"))
    assert pat is not None and pat.direction is Direction.FORWARD


def _random_theory(rng: random.Random, n_facts: int, n_rules: int) -> Theory:
    return random_theory(rng, n_facts, n_rules)


def test_count_models_matches_oracle_on_random_theories():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randint(3, 7)
        theory = _random_theory(rng, n, rng.randint(1, 4))
        fixed = {F(i): rng.random() < 0.5 for i in range(n) if rng.random() < 0.4}
        assert count_models(theory, State(fixed)) == oracle_count_models(theory, fixed)


def test_propagate_sound_on_500_random_theories():
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randint(4, 10)
        theory = _random_theory(rng, n, rng.randint(1, 5))
        fixed = {F(i): rng.random() < 0.5 for i in range(n) if rng.random() < 0.35}
        state = State(fixed)
        if count_models(theory, state) == 0:
            continue
        try:
            closure = propagate(theory, state)
        except PropagationContradiction:
            continue
        for literal in closure.literals():
            assert entails(theory, state, literal).status is Status.ENTAILED


def test_entails_monotone_in_state():
    rng = random.Random(13)
    for _ in range(150):
        n = rng.randint(3, 6)
        theory = _random_theory(rng, n, rng.randint(1, 4))
        base = {F(i): rng.random() < 0.5 for i in range(n) if rng.random() < 0.3}
        state = State(base)
        query = Literal(F(rng.randrange(n)), rng.random() < 0.5)
        before = entails(theory, state, query)
        extra_fact = F(rng.randrange(n))
        if extra_fact in state.facts():
            continue
        bigger = state.with_literal(Literal(extra_fact, rng.random() < 0.5))
        after = entails(theory, bigger, query)
        if before.status is Status.ENTAILED:
            assert after.status in (Status.ENTAILED, Status.INCONSISTENT)


def test_entails_agrees_with_truth_table_oracle_exhaustive_small():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(3, 5)
        theory = _random_theory(rng, n, rng.randint(1, 3))
        for bits in itertools.product([None, False, True], repeat=n):
            fixed = {F(i): b for i, b in enumerate(bits) if b is not None}
            query = Literal(F(rng.randrange(n)), rng.random() < 0.5)
            got = entails(theory, State(fixed), query).status.value
            assert got == oracle_entails(theory, fixed, query)
        break  # one exhaustive theory is enough here; random sweep below


def test_entails_agrees_with_oracle_random_queries():
    rng = random.Random(19)
    for _ in range(400):
        n = rng.randint(3, 8)
        theory = _random_theory(rng, n, rng.randint(1, 5))
        fixed = {F(i): rng.random() < 0.5 for i in range(n) if rng.random() < 0.4}
        query = Literal(F(rng.randrange(n)), rng.random() < 0.5)
        got = entails(theory, State(fixed), query).status.value
        assert got == oracle_entails(theory, fixed, query)


@pytest.mark.parametrize("template", list(RuleTemplate), ids=lambda t: t.value)
def test_one_rule_table_matches_oracle(template):
    arity = TEMPLATES[template][0]
    rule = Rule(template, (F(5), F(2), F(9))[:arity])
    table = ModelTable(theory_for([rule]))
    for a in range(1 << arity):
        assignment = {f: bool(a >> i & 1) for f, i in table.slots.items()}
        assert bool(table.rows >> a & 1) == rule_satisfied(rule, assignment)


def test_countermodel_witness_properties():
    rng = random.Random(23)
    seen = 0
    for _ in range(300):
        n = rng.randint(3, 7)
        theory = _random_theory(rng, n, rng.randint(1, 4))
        fixed = {F(i): rng.random() < 0.5 for i in range(n) if rng.random() < 0.3}
        query = Literal(F(rng.randrange(n)), rng.random() < 0.5)
        result = entails(theory, State(fixed), query)
        if result.status is not Status.NOT_ENTAILED:
            assert result.witness is None
            continue
        seen += 1
        witness = result.witness
        assignment = {lit.fact: lit.value for lit in witness.literals()}
        assert set(assignment) == set(theory.universe)  # full assignment
        assert assignment[query.fact] != query.value    # falsifies the query
        for fact, value in fixed.items():
            assert assignment[fact] == value            # extends the state
        for rule in theory.rules:
            assert rule_satisfied(rule, assignment)     # satisfies the theory
    assert seen >= 50


@st.composite
def _folding_cases(draw):
    """A theory of at most 8 facts, some of them fixed, literals that extend
    the fixed ones (on any universe fact, so some contradict them), and a
    query. Fact ids are sparse, so slot numbers differ from fact ids."""
    facts = sorted(draw(st.sets(st.integers(0, 30), min_size=1, max_size=8)))
    rules = []
    for template in draw(st.lists(st.sampled_from(list(RuleTemplate)), max_size=5)):
        arity = TEMPLATES[template][0]
        if arity <= len(facts):
            picked = draw(st.permutations(facts))[:arity]
            rules.append(Rule(template, tuple(F(f) for f in picked)))
    theory = theory_for(rules, [F(f) for f in facts])
    literal = st.builds(Literal, st.sampled_from(theory.universe), st.booleans())
    fixed = State(draw(st.dictionaries(st.sampled_from(theory.universe), st.booleans())))
    extension = draw(st.lists(literal, max_size=4))
    return theory, fixed, extension, draw(literal)


@settings(max_examples=200, deadline=None)
@given(_folding_cases())
def test_folded_table_decides_as_the_full_table(case):
    theory, fixed, extension, query = case
    folded = ModelTable(theory, fixed.literals())
    full = ModelTable(theory)
    assert set(folded.slots) == set(theory.universe) - fixed.facts()
    assert folded.rows.bit_length() <= 1 << len(folded.slots)
    # the same literals restrict both: the fixed ones first on the full table
    folded_rows, full_rows = folded.rows, full.restrict_state(fixed)
    for lit in extension:
        folded_rows = folded.restrict(folded_rows, lit)
        full_rows = full.restrict(full_rows, lit)
    assert folded_rows.bit_count() == full_rows.bit_count()
    verdict = folded.decide(folded_rows, query)
    assert verdict == full.decide(full_rows, query)
    assert folded.entailed(folded_rows, query) == (verdict.status is Status.ENTAILED)
    outside = Literal(F(max(theory.universe) + 1), query.value)
    assert not folded.entailed(folded_rows, outside)
    assert not folded.entailed(0, query)
    if verdict.status is Status.NOT_ENTAILED:
        # the witness is the lowest countermodel, bit i of its index being
        # the value of the i-th universe fact
        literals = [*fixed.literals(), *extension]
        for index in range(1 << len(theory.universe)):
            assignment = {f: bool(index >> i & 1) for i, f in enumerate(theory.universe)}
            if (assignment[query.fact] != query.value
                    and all(assignment[f] == v for f, v in literals)
                    and all(rule_satisfied(rule, assignment) for rule in theory.rules)):
                break
        assert verdict.witness == State(assignment)


def test_patterns_deriving_lists_the_catalog_patterns_of_each_literal():
    """For every template, slot and value: the licensed patterns whose bound
    derived literal is that literal, in catalog order; none for a fact the
    rule does not mention. Slot facts are sparse and out of slot order."""
    for template, (arity, _) in TEMPLATES.items():
        rule = Rule(template, tuple(F(7 * (arity - i)) for i in range(arity)))
        for fact in rule.slots:
            for value in (False, True):
                lit = Literal(fact, value)
                expected = tuple(p for p in licensed_patterns(rule)
                                 if p.bind_derived(rule) == lit)
                assert patterns_deriving(rule, lit) == expected, (rule, lit)
        assert patterns_deriving(rule, Literal(F(1), True)) == ()
