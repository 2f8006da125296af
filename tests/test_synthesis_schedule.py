"""Early rejection in ``_try_build`` and lazy side-step flavour draws.

Both keep the law of the accepted chains while drawing less for the attempts
that are thrown away. Each is checked against the schedule it replaced, kept
here as the reference: splicing in every side step and then rejecting a
layout whose last token is a side step, and drawing the whole weighted
flavour permutation before trying any flavour.
"""

from __future__ import annotations

import random

import pytest

from counterchain import SynthesisConfig, synthesis
from counterchain.logic import FactId, State
from counterchain.synthesis import _SIDE_FLAVORS, _Builder, _side_step, _splice_side_steps


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
    """With a ``_make_side`` that draws nothing, the first flavour that builds
    is the same for every seed: the lazy draw takes the eager permutation's
    picks one at a time, from the same RNG stream, and stops there."""
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

        monkeypatch.setattr(synthesis, "_make_side", stub)
        builder = _Builder(SynthesisConfig(), random.Random(seed))
        builder.next_fact = len(values)
        got = _side_step(builder, state, set())
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
