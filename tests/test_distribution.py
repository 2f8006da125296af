"""Distribution guard: what the corpus looks like, not which bytes it has.

A change that alters corpus bytes on purpose (a different RNG schedule, a
rejection moved earlier) must keep the law of the corpus. This test builds a
default corpus at a fixed seed and checks each summary statistic below against
a band of mean +- 3 sd over 20 other seeds (101-120) of the same size. The
bands were measured before synthesis rejected an attempt at its dooming draw;
a change to the generator holds them as they are:

* ``template.<t>``: share of correct-chain steps applying template t;
* ``k.<group>.<k>``: per error group, share of its instances with first-error
  index k, with the sparse ends pooled as ``2-3`` and ``8+``;
* ``mean_steps``: mean correct-chain length;
* ``mean_side_steps``: mean number of steps the goal does not depend on (the
  side steps ``_side_step`` splices in);
* ``changed_share``: share of instances where some step after k differs from
  the correct step it replaces;
* ``flip_share``: share of instances whose last erroneous step concludes the
  goal's fact with the other value.
"""

from __future__ import annotations

from collections import Counter

import pytest

from counterchain import CorpusConfig, RuleTemplate
from counterchain.dataset import build_instance, type_schedule
from counterchain.injection import ErrorGroup, Instance

COUNT = 400
SEED = 3


def side_step_count(inst: Instance) -> int:
    """Steps outside the dependency closure of the final (goal) step."""
    steps = inst.correct.steps
    concluded_by = {s.conclusion: s for s in steps}
    needed, todo = set(), [steps[-1]]
    while todo:
        step = todo.pop()
        if step.index in needed:
            continue
        needed.add(step.index)
        todo.extend(concluded_by[l] for l in step.supports if l in concluded_by)
    return len(steps) - len(needed)


def continuation_changed(inst: Instance) -> bool:
    """Some erroneous step after k differs from the correct step it replaces.
    The continuation re-derives the correct chain's last steps, so the two
    tails align from the end (a redundant or a missing step shifts the head)."""
    tail = inst.erroneous.steps[inst.k:]
    originals = inst.correct.steps[len(inst.correct.steps) - len(tail):]
    return not all(a.content_equals(b) for a, b in zip(tail, originals))


def corpus_metrics(insts: list[Instance]) -> dict[str, float]:
    n = len(insts)
    templates = Counter(s.rule.template for i in insts for s in i.correct.steps)
    step_total = sum(templates.values())
    out = {f"template.{t.value}": templates[t] / step_total for t in RuleTemplate}
    for group in ErrorGroup:
        ks = Counter(min(max(i.k, 3), 8) for i in insts if i.error_type.group is group)
        mass = sum(ks.values())
        for k, label in ((3, "2-3"), (4, "4"), (5, "5"), (6, "6"), (7, "7"), (8, "8+")):
            out[f"k.{group.value}.{label}"] = ks[k] / mass
    out["mean_steps"] = step_total / n
    out["mean_side_steps"] = sum(map(side_step_count, insts)) / n
    out["changed_share"] = sum(map(continuation_changed, insts)) / n
    out["flip_share"] = sum(i.reached_goal_polarity != i.correct.goal.value for i in insts) / n
    return out


def default_corpus(seed: int, count: int = COUNT) -> list[Instance]:
    cfg = CorpusConfig(total_count=count, seed=seed)
    return [build_instance(cfg, index, target)[0]
            for index, target in enumerate(type_schedule(cfg))]


# (low, high) per statistic: mean -+ 3 sd over seeds 101-120, 400 instances each
BOUNDS: dict[str, tuple[float, float]] = {
    "template.impl": (0.1187, 0.1463),
    "template.and_ante": (0.1072, 0.1467),
    "template.and_cons": (0.1042, 0.1391),
    "template.or_ante": (0.0871, 0.1212),
    "template.or_cons": (0.1117, 0.1546),
    "template.xor_ante": (0.1625, 0.1953),
    "template.xor_bare": (0.1826, 0.2227),
    "k.truth_state.2-3": (0.0718, 0.2002),
    "k.truth_state.4": (0.1062, 0.2081),
    "k.truth_state.5": (0.1043, 0.2502),
    "k.truth_state.6": (0.1365, 0.2727),
    "k.truth_state.7": (0.1057, 0.2160),
    "k.truth_state.8+": (0.0998, 0.2286),
    "k.structural.2-3": (0.1506, 0.3913),
    "k.structural.4": (0.0308, 0.2227),
    "k.structural.5": (0.0816, 0.2288),
    "k.structural.6": (0.0538, 0.2915),
    "k.structural.7": (0.0435, 0.2403),
    "k.structural.8+": (0.0158, 0.2493),
    "mean_steps": (8.4527, 8.7640),
    "mean_side_steps": (1.8812, 2.1176),
    "changed_share": (0.0623, 0.1607),
    "flip_share": (0.0319, 0.0843),
}


@pytest.fixture(scope="module")
def metrics():
    return corpus_metrics(default_corpus(SEED))


def test_bounds_cover_every_statistic(metrics):
    assert set(BOUNDS) == set(metrics)


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_statistic_within_band(metrics, name):
    low, high = BOUNDS[name]
    assert low <= metrics[name] <= high, (name, metrics[name], (low, high))
