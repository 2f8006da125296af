"""The generator's hot path on plain values, checked against the code it
replaced.

Each rewritten piece keeps its old form here, verbatim, as the reference:
``Random.choices`` and ``Random.shuffle`` for the weighted draw and the
two-item shuffle, the ``State``-copying ``Prefix``, ``recompute_downstream``
and ``verify_first_error``, the set-based ``match_pattern``, the rescanning
``topological_order`` and ``str`` for literal and rule text. The chains are
drawn as ``build_instance`` draws them, from seeded 63-bit chain seeds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from typing import Iterable, Optional, Sequence

import pytest

from counterchain.injection import (ROWS, DownstreamStuck, ErroneousChain, ErrorGroup,
                                    Instance, InstanceReport, recompute_downstream,
                                    verify_first_error)
from counterchain.logic import (TEMPLATES, FactId, Literal, Rule, RuleTemplate, State,
                                TruthValue, render_literal, render_rule)
from counterchain.prover import (_CATALOG, InferencePattern, Status, Theory, match_pattern,
                                 model_table)
from counterchain.synthesis import (Prefix, Step, SynthesisConfig, _draw, _swaps_two,
                                    synthesize_chain, topological_order)

WIDE = SynthesisConfig(step_count=(10, 12), max_facts=20)

# the faults ``Prefix.check`` reports, in the order it reports them
FAULTS = ("support not established", "no licensed pattern matches",
          "fact concluded twice", "not entailed by prefix",
          "supports are not the known rule facts")


# ---------------------------------------------------------------------------
# references, as the code stood before the rewrite


def ref_match_pattern(rule: Rule, supports: Iterable[Literal],
                      conclusion: Literal) -> Optional[InferencePattern]:
    slots = rule.slots
    fact, value = conclusion
    known = set(supports)
    for pattern in _CATALOG[rule.template]:
        slot, derived = pattern.derived
        if slots[slot] != fact or derived != value:
            continue
        # a Literal is a (fact, value) tuple, so a plain tuple finds it
        if all((slots[i], v) in known for i, v in pattern.premises):
            return pattern
    return None


def ref_patterns_concluding_fact(rule: Rule, fact: FactId) -> tuple[InferencePattern, ...]:
    facts = rule.facts()
    return tuple(p for p in _CATALOG[rule.template] if facts[p.derived[0]] == fact)


def ref_step_supports(rule: Rule, conclusion_fact: FactId, state: State) -> tuple[Literal, ...]:
    out = []
    for fact in rule.facts():
        if fact == conclusion_fact:
            continue
        value = state.value_of(fact)
        if value is not TruthValue.UNKNOWN:
            out.append(Literal(fact, bool(value)))
    return tuple(out)


class RefPrefix:
    def __init__(self, theory: Theory, literals: Iterable[Literal]):
        literals = tuple(literals)
        self.state = State({l.fact: l.value for l in literals})
        self.table = model_table(theory, self.state.literals())
        self.rows = self.table.rows
        self.established = set(literals)

    @property
    def known(self) -> dict[FactId, Literal]:
        # the assignment as ``Prefix`` holds it, which the truth-state
        # ``row.check`` reads
        return {l.fact: l for l in self.state.literals()}

    def extend(self, lit: Literal) -> None:
        self.state = self.state.with_literal(lit)
        self.established.add(lit)
        self.rows = self.table.restrict(self.rows, lit)

    def check(self, step: Step) -> list[str]:
        table, rows, state = self.table, self.rows, self.state
        rule_facts = set(step.rule.facts())
        procedural = all(lit in self.established for lit in step.supports)
        in_rule = (step.support_facts() <= rule_facts
                   and step.conclusion.fact in rule_facts
                   and step.conclusion.fact not in step.support_facts())
        pattern = in_rule and ref_match_pattern(step.rule, step.supports,
                                                step.conclusion) is not None
        fresh = state.value_of(step.conclusion.fact) is TruthValue.UNKNOWN
        semantic = all(state.holds(lit) or (lit.fact in table.columns and
                                            table.decide(rows, lit).status is Status.ENTAILED)
                       for lit in (*step.supports, step.conclusion))
        # the supports ``step_supports`` builds from the prefix state
        known = step.supports == ref_step_supports(step.rule, step.conclusion.fact, state)
        return [fault for fault, ok in zip(FAULTS, (procedural, pattern, fresh, semantic, known))
                if not ok]

    def replay(self, steps: Sequence[Step]) -> int:
        for done, step in enumerate(steps):
            if self.check(step):
                return done
            self.extend(step.conclusion)
        return len(steps)


def ref_recompute_downstream(chain, corrupted_prefix, *, originals=None) -> list[Step]:
    if originals is None:
        originals = chain.steps[len(corrupted_prefix):]
    state = chain.base_state().with_literals(
        (step.conclusion for step in corrupted_prefix), overwrite=True)

    out: list[Step] = []
    next_index = len(corrupted_prefix) + 1
    for original in originals:
        rule = original.rule
        target = original.conclusion.fact
        used = ref_match_pattern(original.rule, original.supports, original.conclusion)
        # the originally used pattern first, the others in catalog order
        candidates = sorted(ref_patterns_concluding_fact(rule, target), key=lambda p: p != used)
        applied = None
        for pattern in candidates:
            if all(state.holds(p) for p in pattern.bind_premises(rule)):
                applied = pattern
                break
        if applied is None:
            raise DownstreamStuck(f"no licensed pattern applies at original step "
                                  f"{original.index}")
        derived = applied.bind_derived(rule)
        if state.value_of(derived.fact) is not TruthValue.UNKNOWN:
            raise DownstreamStuck(f"original step {original.index} re-derives an "
                                  f"assigned fact")
        supports = ref_step_supports(rule, target, state)
        out.append(Step(next_index, supports, rule, derived))
        state = state.with_literal(derived)
        next_index += 1
    return out


def ref_verify_first_error(inst: Instance) -> InstanceReport:
    failures: list[str] = []
    chain, err = inst.correct, inst.erroneous
    k = inst.k
    theory = inst.correct.theory()

    if not 1 <= k <= len(err.steps):
        return InstanceReport(False, (f"k={k} out of range",))

    for t in range(k - 1):
        if t >= len(chain.steps) or not err.steps[t].content_equals(chain.steps[t]):
            failures.append(f"prefix differs from the correct chain at step {t + 1}")

    prefix = RefPrefix(theory, chain.base_facts)
    valid = prefix.replay(err.steps[:k - 1])
    if valid < k - 1:
        failures.append(f"prefix step {valid + 1} is not valid")
    else:
        corrupted = err.corrupted
        row = ROWS[err.error_type]
        if row.group is ErrorGroup.STRUCTURAL:
            problem = row.check(err, prefix.established)
            if problem is not None:
                failures.append(f"structural predicate failed: {problem}")
        else:
            failures.extend(row.check(err, prefix))

        # continuation: pattern application over the explicit corrupted state
        cf_state = prefix.state
        if not cf_state.holds(corrupted.conclusion):
            cf_state = cf_state.with_literal(corrupted.conclusion, overwrite=True)
        for t in range(k, len(err.steps)):
            step = err.steps[t]
            if any(not cf_state.holds(l) for l in step.supports):
                failures.append(f"step {t + 1}: support disagrees with the "
                                f"corrupted state")
                break
            if ref_match_pattern(step.rule, step.supports, step.conclusion) is None:
                failures.append(f"step {t + 1}: no licensed pattern under the "
                                f"corrupted state")
                break
            if cf_state.value_of(step.conclusion.fact) is not TruthValue.UNKNOWN:
                failures.append(f"step {t + 1}: re-concludes an assigned fact")
                break
            cf_state = cf_state.with_literal(step.conclusion)

    if err.steps[-1].conclusion.fact != chain.goal.fact:
        failures.append("final step does not target the goal fact")

    return InstanceReport(not failures, tuple(failures))


def ref_topological_order(steps: Sequence[Step]) -> list[int]:
    concluded_by: dict[Literal, int] = {}
    for step in steps:
        concluded_by.setdefault(step.conclusion, step.index)
    deps: dict[int, set[int]] = {s.index: set() for s in steps}
    for step in steps:
        for lit in step.supports:
            src = concluded_by.get(lit)
            if src is not None and src != step.index:
                deps[step.index].add(src)
    order: list[int] = []
    done: set[int] = set()
    pending = sorted(deps)
    while pending:
        ready = [i for i in pending if deps[i] <= done]
        if not ready:
            raise ValueError("cycle detected among steps")
        nxt = ready[0]
        order.append(nxt)
        done.add(nxt)
        pending.remove(nxt)
    return order


# ---------------------------------------------------------------------------
# the chains


@pytest.fixture(scope="module")
def chains():
    """2,100 chains: 1,500 of the default config and 600 of the wide one."""
    rng = random.Random(20261020)
    return [synthesize_chain(cfg, rng.getrandbits(63))
            for cfg, n in ((SynthesisConfig(), 1500), (WIDE, 600)) for _ in range(n)]


def _corruptions(chain, rng: random.Random):
    """Per site k: (k, type, corrupted step) for one type whose row applies,
    drawn by ``rng``, and the negated conclusion, which needs no row."""
    for k in range(1, len(chain.steps) + 1):
        types = [e for e, row in ROWS.items() if row.applies(chain, k)]
        picks = [(None, replace(chain.steps[k - 1],
                                conclusion=chain.steps[k - 1].conclusion.negated()))]
        if types:
            e = rng.choice(types)
            seed, options = rng.getrandbits(63), ROWS[e].corruptions(chain, k)
            if options:
                picks.append((e, random.Random(seed).choice(options)))
        for e, step in picks:
            yield k, e, step


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (DownstreamStuck, ValueError) as exc:
        return type(exc)


# ---------------------------------------------------------------------------
# the weighted draw and the two-item shuffle


def test_draw_matches_random_choices():
    """Same index and same RNG state as ``Random.choices`` with ``weights``,
    and with ``cum_weights``, on seeded weight vectors with zero weights."""
    cases = random.Random(5)
    zeros = 0
    for seed in range(6000):
        n = cases.randint(1, 11)
        weights = [cases.choice((0, 0.0, 1, 2.5, 3.0, cases.random(), cases.random() * 100))
                   for _ in range(n)]
        if not any(weights):
            weights[cases.randrange(n)] = cases.random() + 0.01
        zeros += 0 in weights
        for kind in ("weights", "cum_weights"):
            expected_rng, got_rng = random.Random(seed), random.Random(seed)
            if kind == "weights":
                expected = expected_rng.choices(range(n), weights=weights, k=1)[0]
            else:
                expected = expected_rng.choices(range(n), cum_weights=list(
                    itertools.accumulate(weights)), k=1)[0]
            got = _draw(got_rng, list(itertools.accumulate(weights)))
            assert got == expected, (seed, weights)
            assert weights[got] > 0
            assert got_rng.getstate() == expected_rng.getstate(), seed
    assert zeros > 2000


def test_two_item_shuffle_matches_random_shuffle():
    """``_swaps_two`` takes the one draw ``Random.shuffle`` takes on two
    items and swaps exactly when it does; ``_emit`` and ``expand`` rely on
    that private draw, ``_randbelow(2)``."""
    swaps = 0
    for seed in range(4000):
        expected_rng, got_rng = random.Random(seed), random.Random(seed)
        items = ["a", "b"]
        expected_rng.shuffle(items)
        got = _swaps_two(got_rng)
        assert got is (items == ["b", "a"]), seed
        assert got_rng.getstate() == expected_rng.getstate(), seed
        swaps += got
    assert 1800 < swaps < 2200


# ---------------------------------------------------------------------------
# prefix checks


def _tampered_steps(chain, step, position, rng):
    """Variants of step ``position`` (0-based), each meant to fail a check:
    a support not established, an extra support off the rule, no supports,
    a negated conclusion, a conclusion already assigned, and a conclusion
    outside the universe."""
    out = []
    if step.supports:
        first = step.supports[0]
        out.append(replace(step, supports=(first.negated(), *step.supports[1:])))
        out.append(replace(step, supports=()))
    stray = FactId(max(chain.theory().universe) + 1)
    out.append(replace(step, supports=(*step.supports, Literal(stray, True))))
    out.append(replace(step, conclusion=step.conclusion.negated()))
    if position:
        earlier = chain.steps[rng.randrange(position)]
        out.append(replace(step, conclusion=earlier.conclusion))
    out.append(replace(step, conclusion=Literal(stray, step.conclusion.value)))
    return out


def _walk_both(theory, start, steps, tampered=None) -> tuple[int, dict]:
    """Check ``steps`` against both prefixes, extending each by a step's
    conclusion when it is fresh; returns the count of checks and how often
    each fault was found."""
    new, ref = Prefix(theory, start), RefPrefix(theory, start)
    checks, failed = 0, dict.fromkeys(FAULTS, 0)
    for position, step in enumerate(steps):
        variants = [step] + (tampered(step, position) if tampered else [])
        for variant in variants:
            got, expected = new.check(variant), ref.check(variant)
            assert got == expected, (variant, got, expected)
            checks += 1
            for fault in got:
                failed[fault] += 1
        assert new.state == ref.state and new.rows == ref.rows
        if "fact concluded twice" not in new.check(step):
            new.extend(step.conclusion)
            ref.extend(step.conclusion)
    return checks, failed


def test_prefix_check_matches_reference(chains):
    rng = random.Random(11)
    checks, failed = 0, dict.fromkeys(FAULTS, 0)
    erroneous = 0
    for chain in chains:
        theory = chain.theory()
        walks = [(chain.base_facts, chain.steps,
                  lambda step, pos: _tampered_steps(chain, step, pos, rng))]
        # an inconsistent start, whose table has no rows
        walks.append(((*chain.base_facts, chain.goal.negated()), chain.steps, None))
        sites = list(_corruptions(chain, rng))
        for k, _, corrupted in rng.sample(sites, min(2, len(sites))):
            try:
                rest = recompute_downstream(chain, chain.steps[:k - 1] + (corrupted,))
            except DownstreamStuck:
                rest = list(chain.steps[k:])
            walks.append((chain.base_facts, chain.steps[:k - 1] + (corrupted, *rest), None))
            erroneous += 1
        for start, steps, tampered in walks:
            n, f = _walk_both(theory, start, steps, tampered)
            checks += n
            for name in failed:
                failed[name] += f[name]
    assert erroneous > 3000 and checks > 100_000
    assert all(count > 1000 for count in failed.values()), failed


# ---------------------------------------------------------------------------
# the downstream recompute and the continuation check


def test_recompute_downstream_matches_reference(chains):
    rng = random.Random(12)
    outcomes = {"steps": 0, "stuck": 0}
    for chain in chains:
        for k, e, corrupted in _corruptions(chain, rng):
            prefix = chain.steps[:k - 1] + (corrupted,)
            shift = ROWS[e].length_shift if e is not None else 0
            rest = chain.steps[k - shift:]
            expected = _outcome(ref_recompute_downstream, chain, prefix, originals=rest)
            got = _outcome(recompute_downstream, chain, prefix, originals=rest)
            assert got == expected, (chain.goal, k, e)
            outcomes["stuck" if expected is DownstreamStuck else "steps"] += 1
            if e is None:
                assert _outcome(recompute_downstream, chain, prefix) == \
                    _outcome(ref_recompute_downstream, chain, prefix)
    assert all(count > 5000 for count in outcomes.values()), outcomes


def test_patterns_concluding_one_slot_oppositely_never_fire_together():
    """Why ``recompute_downstream`` may take the first pattern that fires
    rather than the one the step used: two catalog patterns that conclude
    one slot with opposite values require some slot with opposite values."""
    for template, patterns in _CATALOG.items():
        for p, q in itertools.combinations(patterns, 2):
            if p.derived[0] == q.derived[0] and p.derived[1] != q.derived[1]:
                required = dict(p.premises)
                assert any(slot in required and required[slot] != value
                           for slot, value in q.premises), (template, p, q)


def test_verify_first_error_matches_reference(chains):
    """On each injected instance the report equals the reference's. On copies
    whose continuation is tampered (a support flipped, a step's conclusion
    re-assigning a fact, a step with no licensed pattern) every copy the
    reference refuses is refused; the re-derived continuation refuses more,
    so the reports may differ there."""
    rng = random.Random(13)
    verdicts = {"ok": 0, "failed": 0}
    for chain in chains[::3]:
        for k, e, corrupted in _corruptions(chain, rng):
            if e is None:
                continue
            prefix = chain.steps[:k - 1] + (corrupted,)
            try:
                rest = recompute_downstream(chain, prefix,
                                            originals=chain.steps[k - ROWS[e].length_shift:])
            except DownstreamStuck:
                continue
            steps = prefix + tuple(rest)
            variants = [steps]
            if rest:
                j = len(prefix) + rng.randrange(len(rest))
                step = steps[j]
                if step.supports:
                    flipped = replace(step, supports=(step.supports[0].negated(),
                                                      *step.supports[1:]))
                    variants.append(steps[:j] + (flipped,) + steps[j + 1:])
                again = replace(step, conclusion=steps[rng.randrange(j)].conclusion)
                variants.append(steps[:j] + (again,) + steps[j + 1:])
                variants.append(steps[:j] + (replace(step, supports=()),) + steps[j + 1:])
            for tampered, variant in enumerate(variants):
                inst = Instance("x", chain, ErroneousChain(variant, k, e))
                got, expected = verify_first_error(inst), ref_verify_first_error(inst)
                if not tampered:
                    assert got == expected, (chain.goal, k, e)
                elif not expected.ok:
                    assert not got.ok, (chain.goal, k, e, expected)
                verdicts["ok" if got.ok else "failed"] += 1
    assert all(count > 1000 for count in verdicts.values()), verdicts


# ---------------------------------------------------------------------------
# pattern match, topological order, rendered text


def test_match_pattern_matches_reference(chains):
    rng = random.Random(14)
    matched = unmatched = 0
    for chain in chains[::2]:
        for position, step in enumerate(chain.steps):
            for variant in [step] + _tampered_steps(chain, step, position, rng):
                got = match_pattern(variant.rule, variant.supports, variant.conclusion)
                expected = ref_match_pattern(variant.rule, variant.supports,
                                             variant.conclusion)
                assert got is expected, variant
                matched += got is not None
                unmatched += got is None
    assert matched > 5000 and unmatched > 5000


def _random_steps(rng: random.Random) -> list[Step]:
    """Steps over a few facts whose supports often cite later conclusions,
    so that cycles are common; indices are sometimes shared."""
    facts = [FactId(i) for i in range(rng.randint(3, 8))]
    steps = []
    for i in range(rng.randint(1, 9)):
        a, b = rng.sample(facts, 2)
        conclusion = Literal(a, rng.random() < 0.5)
        supports = tuple(Literal(f, rng.random() < 0.5)
                         for f in rng.sample(facts, rng.randint(0, 3)) if f != a)
        index = i + 1 if rng.random() < 0.9 else rng.randint(1, 9)
        steps.append(Step(index, supports, Rule(RuleTemplate.IMPL, (b, a)), conclusion))
    return steps


def test_topological_order_matches_reference(chains):
    rng = random.Random(15)
    outcomes = {"order": 0, "cycle": 0}
    for _ in range(20000):
        steps = _random_steps(rng)
        expected = _outcome(ref_topological_order, steps)
        assert _outcome(topological_order, steps) == expected, steps
        outcomes["cycle" if expected is ValueError else "order"] += 1
    for chain in chains[::4]:
        assert topological_order(chain.steps) == ref_topological_order(chain.steps)
    assert all(count > 3000 for count in outcomes.values()), outcomes


def test_rendered_text_matches_str(chains):
    for chain in chains[::5]:
        for rule in chain.rules:
            assert render_rule(rule) == TEMPLATES[rule.template][1].format(*rule.slots)
            assert str(rule) == render_rule(rule)
        for step in chain.steps:
            for lit in (*step.supports, step.conclusion, step.conclusion.negated()):
                assert render_literal(lit) == str(lit)
