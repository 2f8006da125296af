"""Early rejection in ``_try_build`` and the side-step rows.

Both are checked against the code they replaced, kept here as the reference:
splicing in every side step and then rejecting a layout whose last token is a
side step; and the ten hand-coded side-step flavours, drawn lazily, in place
of the rows of ``_SIDE_ROWS`` that one loop draws from. The lazy flavour draw
is in turn checked against the whole weighted flavour permutation drawn
before any flavour is tried.
"""

from __future__ import annotations

import random
import sys
from typing import Optional

import pytest

from counterchain import SynthesisConfig
from counterchain.logic import TEMPLATES, FactId, Literal, Rule, RuleTemplate, State
from counterchain.prover import _CATALOG, match_pattern
from counterchain.synthesis import (_SIDE_ROWS, _Builder, _side_step, _splice_side_steps,
                                    step_supports)


def splice_all_then_check(nodes, count, rng):
    """The old schedule: insert every side step, then reject the layout when
    a side step landed last (the chain could not end on the goal)."""
    tokens = list(nodes)
    for _ in range(count):
        tokens.insert(rng.randint(2, len(tokens)), None)
    return tokens if tokens[-1] is not None else None


@pytest.mark.parametrize("spent, side", [(3, 1), (3, 4), (4, 2), (5, 3), (7, 3), (9, 1)])
def test_splice_rejects_exactly_when_the_reference_does(spent, side):
    nodes = [f"n{i}" for i in range(spent)]
    outcomes = {"kept": 0, "rejected": 0}
    for seed in range(400):
        expected = splice_all_then_check(nodes, side, random.Random(seed))
        got = _splice_side_steps(nodes, side, random.Random(seed))
        assert got == expected, (spent, side, seed)
        outcomes["kept" if got is not None else "rejected"] += 1
    assert all(outcomes.values()), outcomes


def test_splice_keeps_the_backbone_order_and_the_root_last():
    rng = random.Random(11)
    nodes = list(range(6))
    for _ in range(200):
        tokens = _splice_side_steps(nodes, 3, rng)
        if tokens is None:
            continue
        assert [t for t in tokens if t is not None] == nodes
        assert tokens[:2] == nodes[:2] and tokens[-1] == nodes[-1]
        assert tokens.count(None) == 3


# ---------------------------------------------------------------------------
# the side-step flavours the rows replaced, verbatim


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


def ref_side_step(builder: _Builder, state: State,
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


# ---------------------------------------------------------------------------
# the rows against the flavours


def _side_case(rng: random.Random, cfg: SynthesisConfig):
    """A seeded (state, ahead, next_fact) for one side step: all-true,
    all-false and single-fact states, a spent fact budget and an ``ahead``
    that covers every known fact each come up often."""
    n = rng.choice((1, 1, 2, 3, 4, 6, 9, cfg.max_facts - 1))
    facts = sorted(rng.sample(range(cfg.max_facts), n))
    mix = rng.choice(("true", "false", "mixed", "mixed"))
    values = [True if mix == "true" else False if mix == "false" else rng.random() < 0.5
              for _ in facts]
    state = State({FactId(f): v for f, v in zip(facts, values)})
    cover = rng.random()
    ahead = {FactId(f) for f in range(cfg.max_facts)
             if cover > 0.8 or rng.random() < cover}
    next_fact = cfg.max_facts if rng.random() < 0.1 else rng.randint(facts[-1] + 1,
                                                                     cfg.max_facts)
    return state, ahead, next_fact


def _builder(cfg: SynthesisConfig, seed: int, state: State, next_fact: int) -> _Builder:
    builder = _Builder(cfg, random.Random(seed))
    builder.next_fact = next_fact
    builder.intended = {l.fact: l.value for l in state.literals()}
    return builder


def test_side_rows_draw_as_the_reference_flavours():
    """On seeded states the row loop returns what the flavours return and
    leaves the builder (fresh facts, intended values, rules) and the RNG where
    they leave them; every side step it builds instantiates a catalog pattern
    with a fresh conclusion."""
    cfg = SynthesisConfig()
    cases = random.Random(2718)
    seen = dict.fromkeys(("none", "no-budget", "all-ahead", "all-true", "all-false",
                          "single-fact"), 0)
    templates = set()
    for seed in range(6000):
        state, ahead, next_fact = _side_case(cases, cfg)
        expected_builder = _builder(cfg, seed, state, next_fact)
        got_builder = _builder(cfg, seed, state, next_fact)
        expected = ref_side_step(expected_builder, state, ahead)
        got = _side_step(got_builder, {l.fact: l for l in state.literals()}, ahead)
        assert got == expected, seed
        assert got_builder.next_fact == expected_builder.next_fact, seed
        assert got_builder.intended == expected_builder.intended, seed
        assert got_builder.rules == expected_builder.rules, seed
        assert got_builder.rng.getstate() == expected_builder.rng.getstate(), seed
        seen["none"] += got is None
        seen["no-budget"] += next_fact == cfg.max_facts
        seen["all-ahead"] += state.facts() <= ahead
        seen["all-true"] += all(l.value for l in state.literals())
        seen["all-false"] += not any(l.value for l in state.literals())
        seen["single-fact"] += len(state) == 1
        if got is not None:
            rule, conclusion = got
            supports = step_supports(rule, conclusion.fact, state)
            assert match_pattern(rule, supports, conclusion) is not None, seed
            assert conclusion.fact not in state.facts()
            templates.add(rule.template)
    assert all(seen.values()), seen
    assert templates == set(RuleTemplate)


def test_side_rows_are_catalog_patterns_with_one_derived_slot():
    """Each row's patterns come from the catalog, share a template, premise
    slots and a derived slot, and its draws fill every other slot once."""
    for row in _SIDE_ROWS:
        first = row.patterns[0]
        for p in row.patterns:
            assert p in _CATALOG[p.template]
            assert (p.template, p.derived[0]) == (first.template, first.derived[0])
            assert [s for s, _ in p.premises] == [s for s, _ in first.premises]
        drawn = [slot for slot, _ in row.draws]
        assert sorted(drawn + [first.derived[0]]) == list(range(TEMPLATES[first.template][0]))


def eager_first_accepted(feasible, accept, rng):
    """The old draw: the whole weighted permutation of the feasible flavours
    first, then the first one that builds."""
    remaining = [(f, w) for f, w in _SIDE_FLAVORS if f in feasible]
    order = []
    while remaining:
        pick = rng.choices(range(len(remaining)), weights=[w for _, w in remaining], k=1)[0]
        order.append(remaining.pop(pick)[0])
    return next((f for f in order if f in accept), None)


def _feasible(trues, falses):
    out = {"xor_bare"}
    if trues:
        out |= {"impl_fwd", "and_cons_fwd", "or_ante_fwd"}
    if falses:
        out |= {"impl_bwd", "xor_ante_bwd", "and_cons_bwd"}
    if trues and falses:
        out |= {"or_cons_fwd", "and_ante_bwd", "xor_ante_fwd"}
    return out


@pytest.mark.parametrize("n_true, n_false", [(0, 2), (2, 0), (1, 1), (3, 2)])
def test_lazy_flavour_draw_matches_the_eager_permutation(monkeypatch, n_true, n_false):
    """With a reference ``_make_side`` that draws nothing, the first flavour
    that builds is the same for every seed: the lazy draw takes the eager
    permutation's picks one at a time, from the same RNG stream, and stops
    there."""
    values = [True] * n_true + [False] * n_false
    state = State({FactId(i): v for i, v in enumerate(values)})
    feasible = _feasible(n_true, n_false)
    picker = random.Random(5)
    seen: set = set()
    for seed in range(300):
        # a per-seed set of flavours that build; the empty set is included
        accept = {f for f in feasible if picker.random() < 0.3}
        tried = []

        def stub(builder, flavor, *pools):
            tried.append(flavor)
            return flavor if flavor in accept else None

        monkeypatch.setattr(sys.modules[__name__], "_make_side", stub)
        builder = _Builder(SynthesisConfig(), random.Random(seed))
        builder.next_fact = len(values)
        got = ref_side_step(builder, state, set())
        expected = eager_first_accepted(feasible, accept, random.Random(seed))
        assert got == expected, (seed, accept)
        assert len(set(tried)) == len(tried) and set(tried) <= feasible
        # one draw per flavour tried, and none after the first that builds
        assert tried[-1:] == [got] or got is None and set(tried) == feasible
        spent = random.Random(seed)
        for _ in tried:
            spent.random()
        assert builder.rng.getstate() == spent.getstate()
        seen.add(got)
    # several first flavours and the no-flavour-builds case were exercised
    assert None in seen and len(seen) > 3, seen
