from __future__ import annotations

import json
import random
import re

import pytest

from counterchain import (
    CorpusConfig,
    FactId,
    PredicateMapInvalid,
    LeakViolation,
    ScriptedTranslator,
    build_predicate_map,
    generate_corpus,
    leak_lint,
    read_corpus,
    realize_instance,
    realized,
)
from counterchain import lexicon
from counterchain.realize import (
    LEAK_PHRASES,
    LEAK_WORDS,
    _frame_pick,
    _realize_rule,
    _realize_step,
    _scan_text,
)

from . import fixtures


def test_templated_map_deterministic():
    inst = fixtures.bakery_instance()
    a = build_predicate_map(inst, seed=4)
    b = build_predicate_map(inst, seed=4)
    assert a == b
    c = build_predicate_map(inst, seed=5)
    assert c != a


def test_templated_map_covers_universe_uniquely():
    inst = fixtures.navigator_instance()
    pmap = build_predicate_map(inst, seed=1)
    universe = inst.correct.theory().universe
    assert set(pmap.entries) == set(universe)
    names = [e.predicate for e in pmap.entries.values()]
    assert len(set(names)) == len(names)


def _external_mapping_reply(inst, special=None):
    universe = inst.correct.theory().universe
    obj = {}
    for i, fact in enumerate(universe):
        obj[str(fact)] = {
            "predicate": f"pred_{i}",
            "true": f"The {i}th habit holds for our hero",
            "false": f"The {i}th habit never took root",
        }
    if special:
        obj.update(special)
    return obj


def test_external_map_accepted_with_scripted_client():
    inst = fixtures.bakery_instance()
    mapping = _external_mapping_reply(inst, special={
        "[F12]": {"predicate": "dessert_truck",
                  "true": "A dessert truck was always the plan",
                  "false": "The idea of a dessert truck never crossed his mind"},
    })
    client = ScriptedTranslator(["A baker from a coastal town.",
                                 json.dumps(mapping)])
    pmap = build_predicate_map(inst, seed=0, client=client)
    assert pmap.entries[FactId(12)].negative == \
        "The idea of a dessert truck never crossed his mind"
    assert len(client.transcript) == 2
    roles = [r for r, _ in client.transcript[1].sections]
    assert roles == ["system", "user"]


def test_external_map_missing_symbol_rejected():
    inst = fixtures.bakery_instance()
    mapping = _external_mapping_reply(inst)
    universe = inst.correct.theory().universe
    del mapping[str(universe[2])]
    client = ScriptedTranslator(["bg", json.dumps(mapping),
                                 json.dumps(mapping), json.dumps(mapping)])
    with pytest.raises(PredicateMapInvalid):
        build_predicate_map(inst, seed=0, client=client)


def test_external_map_duplicate_predicate_rejected():
    inst = fixtures.bakery_instance()
    mapping = _external_mapping_reply(inst)
    keys = list(mapping)
    mapping[keys[1]]["predicate"] = mapping[keys[0]]["predicate"]
    client = ScriptedTranslator(["bg"] + [json.dumps(mapping)] * 3)
    with pytest.raises(PredicateMapInvalid):
        build_predicate_map(inst, seed=0, client=client)


def test_external_map_leaky_sentence_rejected_then_retried():
    inst = fixtures.bakery_instance()
    bad = _external_mapping_reply(inst)
    first_key = next(iter(bad))
    bad[first_key]["true"] = "This is clearly the wrong habit"
    good = _external_mapping_reply(inst)
    client = ScriptedTranslator(["bg", json.dumps(bad), json.dumps(good)])
    pmap = build_predicate_map(inst, seed=0, client=client)
    assert len(client.transcript) == 3  # background + failed + retry


def test_external_transcript_replays_identically():
    inst = fixtures.bakery_instance()
    mapping = json.dumps(_external_mapping_reply(inst))
    first = ScriptedTranslator(["A quiet baker.", mapping])
    second = ScriptedTranslator(["A quiet baker.", mapping])
    a = build_predicate_map(inst, seed=3, client=first)
    b = build_predicate_map(inst, seed=3, client=second)
    assert a == b
    assert first.transcript == second.transcript  # prompts are deterministic


def test_prefix_steps_render_identically():
    inst = fixtures.bakery_instance()
    pmap = build_predicate_map(inst, seed=2)
    record = realize_instance(inst, pmap)
    for t in range(inst.k - 1):
        assert record["correct_steps"][t] == record["erroneous_steps"][t]


def test_divergence_reflects_symbols_only():
    inst = fixtures.navigator_instance()
    pmap = build_predicate_map(inst, seed=2)
    record = realize_instance(inst, pmap)
    correct_last = record["correct_steps"][6]
    wrong_last = record["erroneous_steps"][6]
    assert correct_last["rule_text"] == wrong_last["rule_text"]
    assert correct_last["conclusion_text"] == pmap.clause(
        inst.correct.steps[6].conclusion)
    assert wrong_last["conclusion_text"] == pmap.clause(
        inst.erroneous.steps[6].conclusion)
    assert correct_last["conclusion_text"] != wrong_last["conclusion_text"]


def test_alignment_audit_every_literal_once():
    from counterchain import CorpusConfig
    from counterchain.dataset import build_instance, type_schedule
    ccfg = CorpusConfig(total_count=12, seed=21)
    schedule = type_schedule(ccfg)
    for index in range(12):
        inst, _ = build_instance(ccfg, index, schedule[index])
        pmap = build_predicate_map(inst, seed=index)
        record = realize_instance(inst, pmap)
        for steps, chain in (("correct_steps", inst.correct.steps),
                             ("erroneous_steps", inst.erroneous.steps)):
            for step_record, step in zip(record[steps], chain):
                assert step_record["support_texts"] == \
                    [pmap.clause(l) for l in step.supports]
                assert step_record["conclusion_text"] == pmap.clause(step.conclusion)
                for clause in (*step_record["support_texts"],
                               step_record["conclusion_text"]):
                    assert clause in step_record["text"]


def test_leak_lint_flags_giveaway_word():
    record = {"erroneous_steps": [
        {"text": "All fine here."},
        {"text": "So the ledger closes, which is clearly wrong."},
    ]}
    violations = leak_lint(record, k=2)
    assert len(violations) == 1
    assert violations[0].word == "wrong"
    assert violations[0].step_index == 2


def test_leak_lint_respects_word_boundaries():
    record = {"erroneous_steps": [{"text": "A wrongfooted gull recovered."}]}
    assert leak_lint(record, k=1) == []


def test_leak_lint_ignores_prefix_steps():
    record = {"erroneous_steps": [
        {"text": "A wrong turn."},
        {"text": "Calm waters."},
    ]}
    assert leak_lint(record, k=2) == []


def test_leak_lint_catches_meta_phrases():
    record = {"erroneous_steps": [{"text": "According to the rule, all is well."}]}
    violations = leak_lint(record, k=1)
    assert violations and violations[0].word == "according to the rule"


def _scan_reference(text: str) -> list[str]:
    """The lint as one regex for the words and one per phrase."""
    found = [m.group(0).lower() for m in re.finditer(
        r"\b(" + "|".join(LEAK_WORDS) + r")\b", text, re.IGNORECASE)]
    for phrase in LEAK_PHRASES:
        found.extend(m.group(0).lower() for m in re.finditer(
            r"\b" + re.escape(phrase) + r"\b", text, re.IGNORECASE))
    return found


def test_one_pass_scan_matches_the_per_phrase_scan():
    # the one-pass scan relies on no entry matching where another starts
    entries = [e.lower() for e in (*LEAK_WORDS, *LEAK_PHRASES)]
    assert not [(a, b) for a in entries for b in entries
                if b.startswith(a + " ")]
    # overlapping phrases are each reported, words first
    text = "According to the rule says this Step is an ERROR."
    assert _scan_text(text) == _scan_reference(text) == [
        "error", "the rule says", "according to the rule", "this step"]
    rng = random.Random(11)
    vocab = [*LEAK_WORDS, *" ".join(LEAK_PHRASES).split(), "errors", "xerror",
             "rule", "steps", "the", "to", "baker", "oven"]
    for _ in range(3000):
        words = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        words = [w.upper() if rng.random() < 0.2 else w for w in words]
        text = "".join(w + rng.choice([" ", " ", " ", ", ", "-", "_", ".", ""])
                       for w in words)
        assert _scan_text(text) == _scan_reference(text), text


def _lint_reference(nl_record: dict, k: int) -> list[LeakViolation]:
    """``leak_lint`` as ``_scan_text`` over every field, with no prefilter."""
    found = []
    for index, step in enumerate(nl_record["erroneous_steps"], start=1):
        if index >= k:
            for text in (step["text"], step["rule_text"], step["conclusion_text"],
                         *step["support_texts"]):
                found += [LeakViolation(index, word, text) for word in _scan_text(text)]
    return found


def test_leak_lint_prefilter_matches_the_per_text_scan():
    rng = random.Random(23)
    entries = [*LEAK_WORDS, *LEAK_PHRASES]
    filler = ["the", "baker", "oven", "rule", "says", "steps", "kiln", "to", "sun"]

    def text() -> str:
        out = ""
        for _ in range(rng.randint(0, 8)):
            word = rng.choice(entries if rng.random() < 0.15 else filler)
            word = "".join(c.upper() if rng.random() < 0.3 else c for c in word)
            if rng.random() < 0.15:  # spellings that only case folding matches
                word = word.replace("s", "\u017f").replace("k", "\u212a")
            # "" and "s" put the next word or a suffix off the word boundary
            out += word + rng.choice([" ", " ", ", ", "-", "", "s "])
        return out

    flagged = 0
    for _ in range(2000):
        record = {"erroneous_steps": [
            {"text": text(), "rule_text": text(), "conclusion_text": text(),
             "support_texts": [text() for _ in range(rng.randint(0, 3))]}
            for _ in range(rng.randint(1, 4))]}
        k = rng.randint(1, 4)
        violations = leak_lint(record, k)
        assert violations == _lint_reference(record, k)
        flagged += any(not v.text.isascii() for v in violations)
    assert flagged > 50


def test_golden_realizations_are_lint_clean():
    for inst in (fixtures.bakery_instance(), fixtures.navigator_instance()):
        out = realized(inst, seed=3)
        assert leak_lint(out.nl, out.k) == []
        assert out.context is not None


def test_lexicon_is_free_of_leak_vocabulary():
    texts = list(lexicon.NAMES) + list(lexicon.BACKGROUND_FRAMES)
    for _, pos, neg in lexicon.PREDICATE_FRAMES:
        texts += [pos, neg]
    for frames in lexicon.RULE_FRAMES.values():
        texts += list(frames)
    texts += list(lexicon.STEP_FRAMES) + list(lexicon.GOAL_FRAMES)
    for text in texts:
        assert _scan_text(text) == [], text


def test_annotated_mode_marks_only_tail_steps():
    inst = fixtures.bakery_instance()
    pmap = build_predicate_map(inst, seed=0)
    record = realize_instance(inst, pmap, mode="annotated")
    for i, step_record in enumerate(record["erroneous_steps"], start=1):
        assert ("annotation" in step_record) == (i >= inst.k)
    clean = realize_instance(inst, pmap, mode="clean")
    assert all("annotation" not in s for s in clean["erroneous_steps"])


def test_steps_shared_by_both_chains_render_as_drawn_alone(tmp_path):
    """``realize_instance`` draws each step frame once per position and copies
    an erroneous step equal to the correct one at its position. Every step
    record must equal the one drawn for that step alone, and annotating a
    copied record must leave the correct chain's record bare."""
    path = tmp_path / "c.jsonl"
    generate_corpus(CorpusConfig(total_count=20, seed=7), str(path))
    shared_tail = 0
    for inst in read_corpus(str(path))[1]:
        pmap = build_predicate_map(inst, seed=inst.seed)
        record = realize_instance(inst, pmap, mode="annotated", seed=inst.seed)
        rule_texts = dict(zip(inst.correct.rules, record["rule_texts"]))
        note = record["erroneous_steps"][-1]["annotation"]
        for key, steps in (("correct_steps", inst.correct.steps),
                           ("erroneous_steps", inst.erroneous.steps)):
            for i, step in enumerate(steps):
                rule_text = rule_texts.get(step.rule) or \
                    _realize_rule(step.rule, pmap, inst.seed, 997 + i)
                frame = _frame_pick(lexicon.STEP_FRAMES, inst.seed, 113, i)
                alone = _realize_step(step, rule_text, frame, pmap)
                if key == "erroneous_steps" and i + 1 >= inst.k:
                    alone["annotation"] = note
                    shared_tail += i < len(inst.correct.steps) and \
                        step == inst.correct.steps[i]
                assert record[key][i] == alone
    assert shared_tail  # the copy is exercised where annotations are added


def test_realized_instance_serializes_with_nl(tmp_path):
    from counterchain import deserialize_instance, serialize_instance
    inst = realized(fixtures.navigator_instance(), seed=8)
    line = serialize_instance(inst)
    back = deserialize_instance(line)
    assert back.nl == inst.nl
    assert back.context == inst.context
    assert serialize_instance(back) == line


def test_templated_realization_deterministic():
    inst = fixtures.bakery_instance()
    a = realized(inst, seed=6)
    b = realized(inst, seed=6)
    assert a.nl == b.nl


def test_leak_word_list_contents():
    assert set(LEAK_WORDS) == {
        "error", "mistake", "wrong", "invalid", "unsupported", "evidence",
        "established", "assumes", "depends", "relies", "repeats", "restates",
    }
    assert set(LEAK_PHRASES) == {
        "the rule says", "according to the rule", "this step", "the conclusion",
    }
