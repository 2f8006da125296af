"""Natural-language realization of symbolic instances.

The default engine is a deterministic offline templater: one predicate frame
per fact, shared by both chains, so the correct and erroneous trajectory
differ in text exactly where they differ in symbols. Given a
``TranslatorClient``, the predicate map comes from an external translator
instead; its replies are validated for coverage and uniqueness and linted for
label-leaking words before acceptance, with ``TRANSLATOR_RETRIES`` retries.
Tests always substitute a scripted client; nothing here performs network I/O
on its own.
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
from dataclasses import dataclass
from typing import Iterator, Optional, Protocol, Sequence

from . import lexicon
from .injection import ContextProfile, Instance
from .logic import FactId, Literal, Rule
from .synthesis import Step

LEAK_WORDS: tuple[str, ...] = (
    "error", "mistake", "wrong", "invalid", "unsupported", "evidence",
    "established", "assumes", "depends", "relies", "repeats", "restates",
)

LEAK_PHRASES: tuple[str, ...] = (
    "the rule says", "according to the rule", "this step", "the conclusion",
)

# group 1 is any word, group 1 + i the i-th phrase; a zero-width lookahead is
# tried at every position, so a phrase inside a longer one is found too
_LEAK_RE = re.compile(
    r"(?=\b(?:(" + "|".join(LEAK_WORDS) + ")|"
    + "|".join("(" + re.escape(p) + ")" for p in LEAK_PHRASES) + r")\b)",
    re.IGNORECASE)
_LEAK_ENTRIES = LEAK_WORDS + LEAK_PHRASES


@dataclass(frozen=True)
class PredicateEntry:
    predicate: str
    positive: str  # clause for the true value
    negative: str  # clause for the false value

    def clause(self, value: bool) -> str:
        return self.positive if value else self.negative

    def sentence(self, value: bool) -> str:
        clause = self.clause(value)
        return clause[0].upper() + clause[1:] + "."


@dataclass(frozen=True)
class PredicateMap:
    context: ContextProfile
    entries: dict[FactId, PredicateEntry]

    def clause(self, lit: Literal) -> str:
        return self.entries[lit.fact].clause(lit.value)

    def sentence(self, lit: Literal) -> str:
        return self.entries[lit.fact].sentence(lit.value)


class PredicateMapInvalid(ValueError):
    pass


# ---------------------------------------------------------------------------
# external translator contract


@dataclass(frozen=True)
class PromptBundle:
    """Role-tagged prompt sections, in order; the wire unit sent to a
    translator backend."""

    sections: tuple[tuple[str, str], ...]

    def text(self, role: str) -> str:
        return "\n\n".join(body for r, body in self.sections if r == role)


class TranslatorClient(Protocol):
    def send(self, bundle: PromptBundle) -> str:  # pragma: no cover - protocol
        ...


# how many times a rejected predicate-map reply is asked for again
TRANSLATOR_RETRIES = 2


class ScriptedTranslator:
    """Replays canned replies and records every bundle; the stand-in used
    wherever tests exercise the external path."""

    def __init__(self, replies: Sequence[str]):
        self.replies = list(replies)
        self.transcript: list[PromptBundle] = []

    def send(self, bundle: PromptBundle) -> str:
        self.transcript.append(bundle)
        if not self.replies:
            raise RuntimeError("scripted translator ran out of replies")
        return self.replies.pop(0)


def background_prompt(name: str) -> PromptBundle:
    return PromptBundle((
        ("system", "Write a brief background story for one person. Keep it "
                   "natural and concise, and make it a usable setting for "
                   "statements about what the person does. Output only the "
                   "story."),
        ("user", f"Write a background story for someone named {name}."),
    ))


def predicate_map_prompt(background: str, name: str,
                         fact_symbols: Sequence[str]) -> PromptBundle:
    return PromptBundle((
        ("system", "Turn fact symbols such as [F0] into vivid English "
                   "predicates that fit the character's background. Reply "
                   "with valid JSON only: one entry per fact symbol, each "
                   "with a predicate name, a natural sentence for the true "
                   "value, and a natural sentence for the false value. Every "
                   "predicate must be distinct, sentence shapes should be "
                   "varied, and negative forms should read naturally. No "
                   "markdown, no extra text."),
        ("user", f"Background: {background}\n\nName: {name}\n\n"
                 f"Fact symbols: {', '.join(fact_symbols)}\n\n"
                 "Write one predicate per fact symbol. Output only JSON."),
    ))


# ---------------------------------------------------------------------------
# predicate maps


def _instance_facts(inst: Instance) -> list[FactId]:
    return list(inst.correct.theory().universe)


def build_predicate_map(inst: Instance, seed: int = 0,
                        client: Optional[TranslatorClient] = None) -> PredicateMap:
    """A deterministic lexicon draw, or a validated reply from ``client``
    when one is given."""
    facts = _instance_facts(inst)
    if client is None:
        rng = random.Random(seed)
        name = rng.choice(lexicon.NAMES)
        background = rng.choice(lexicon.BACKGROUND_FRAMES).format(name=name)
        frames = rng.sample(lexicon.PREDICATE_FRAMES, len(facts))
        entries = {
            fact: PredicateEntry(
                predicate=key,
                positive=pos.format(name=name),
                negative=neg.format(name=name),
            )
            for fact, (key, pos, neg) in zip(facts, frames)
        }
        return PredicateMap(ContextProfile(name, background), entries)

    rng = random.Random(seed)
    name = rng.choice(lexicon.NAMES)
    background = client.send(background_prompt(name)).strip()
    symbols = [str(f) for f in facts]
    last_error: Optional[Exception] = None
    for _ in range(TRANSLATOR_RETRIES + 1):
        reply = client.send(predicate_map_prompt(background, name, symbols))
        try:
            entries = _parse_external_map(reply, facts)
            return PredicateMap(ContextProfile(name, background), entries)
        except PredicateMapInvalid as exc:
            last_error = exc
    raise PredicateMapInvalid(f"translator kept returning bad mappings: {last_error}")


def _parse_external_map(reply: str, facts: Sequence[FactId],
                        ) -> dict[FactId, PredicateEntry]:
    try:
        obj = json.loads(reply)
    except json.JSONDecodeError as exc:
        raise PredicateMapInvalid(f"reply is not JSON: {exc}") from exc
    entries: dict[FactId, PredicateEntry] = {}
    names: set[str] = set()
    for fact in facts:
        item = obj.get(str(fact))
        if item is None:
            raise PredicateMapInvalid(f"mapping misses symbol {fact}")
        try:
            entry = PredicateEntry(item["predicate"], item["true"], item["false"])
        except (KeyError, TypeError) as exc:
            raise PredicateMapInvalid(f"bad entry for {fact}: {exc}") from exc
        if not entry.positive or not entry.negative:
            raise PredicateMapInvalid(f"empty sentence for {fact}")
        if entry.predicate in names:
            raise PredicateMapInvalid(f"duplicate predicate {entry.predicate!r}")
        for text in (entry.positive, entry.negative):
            if _scan_text(text):
                raise PredicateMapInvalid(f"label-leaking wording for {fact}: "
                                          f"{text!r}")
        names.add(entry.predicate)
        entries[fact] = entry
    return entries


# ---------------------------------------------------------------------------
# realization


def _frame_pick(options: Sequence[str], seed: int, *salt: int) -> str:
    key = seed & 0xFFFFFFFFFFFF
    for part in salt:
        key = (key * 1000003 + part + 1) & 0xFFFFFFFFFFFF
    return random.Random(key).choice(options)


def _realize_rule(rule: Rule, pmap: PredicateMap, seed: int, salt: int) -> str:
    frames = lexicon.RULE_FRAMES[rule.template.value]
    frame = _frame_pick(frames, seed, 71, salt)
    facts = rule.facts()
    slots = {}
    for key, fact in zip(("a", "b", "c"), facts):
        slots[key] = pmap.entries[fact].positive
    return frame.format(**slots)


def _realize_step(step: Step, rule_text: str, frame: str, pmap: PredicateMap) -> dict:
    supports = [pmap.clause(l) for l in step.supports]
    conclusion = pmap.clause(step.conclusion)
    facts_joined = ", and ".join(supports)
    text = frame.format(facts=facts_joined, why=rule_text, concl=conclusion)
    return {
        "text": text,
        "rule_text": rule_text,
        "support_texts": supports,
        "conclusion_text": conclusion,
    }


_ANNOTATIONS = {
    "drop_condition": "a needed part of the compound condition was ignored",
    "implication_misuse": "the arrow's truth condition was violated",
    "or_and_confusion": "an inclusive alternative was treated as if both "
                        "sides had to hold",
    "partial_evaluation": "only part of the compound was considered",
    "xor_as_or": "an exclusive split was treated as an inclusive one",
    "xor_as_equiv": "an exclusive split was treated as an agreement",
    "vacuous_truth_error": "a consequent was updated although the antecedent "
                           "did not hold",
    "converse_error": "the arrow was applied in the converse direction",
    "redundant_step": "the derivation re-does work already in the prefix",
    "missing_prerequisite": "a bridge fact was used before being derived",
    "circular_reference": "two derivations lean on each other in a cycle",
}


def _mentioned_facts(inst: Instance) -> Iterator[FactId]:
    chain = inst.correct
    yield chain.goal.fact
    for lit in chain.base_facts:
        yield lit.fact
    for rule in chain.rules:
        yield from rule.facts()
    for step in (*inst.correct.steps, *inst.erroneous.steps):
        yield from step.rule.facts()
        for lit in (*step.supports, step.conclusion):
            yield lit.fact


def realize_instance(inst: Instance, pmap: PredicateMap, mode: str = "clean",
                     seed: int = 0) -> dict:
    """NL record covering goal, base facts, rules, and both chains.

    Both chains share the predicate map and the per-position frame choices,
    so prefix steps render byte-identically and later differences all trace
    back to symbolic differences. ``annotated`` mode adds a mechanism note to
    each erroneous step from the corruption on; the note is a separate field,
    never part of the step text. A record that names a fact ``pmap`` does not
    cover, one outside its universe, raises ``PredicateMapInvalid``.
    """
    if mode not in ("clean", "annotated"):
        raise ValueError(f"unknown nl mode: {mode!r}")
    stray = next((f for f in _mentioned_facts(inst) if f not in pmap.entries), None)
    if stray is not None:
        raise PredicateMapInvalid(f"{stray} is outside the record's universe")
    rule_texts = {rule: _realize_rule(rule, pmap, seed, i)
                  for i, rule in enumerate(inst.correct.rules)}
    correct, erroneous = inst.correct.steps, inst.erroneous.steps
    # a step frame depends only on the position, so both chains share it
    step_frames = [_frame_pick(lexicon.STEP_FRAMES, seed, 113, i)
                   for i in range(max(len(correct), len(erroneous)))]

    def render_step(step: Step, i: int) -> dict:
        rule_text = rule_texts.get(step.rule) or \
            _realize_rule(step.rule, pmap, seed, 997 + i)
        return _realize_step(step, rule_text, step_frames[i], pmap)

    correct_records = [render_step(s, i) for i, s in enumerate(correct)]
    goal_frame = _frame_pick(lexicon.GOAL_FRAMES, seed, 31)
    record: dict = {
        "mode": mode,
        "context": {"name": pmap.context.name,
                    "background": pmap.context.background},
        "predicates": {str(f): {"predicate": e.predicate, "true": e.positive,
                                "false": e.negative}
                       for f, e in sorted(pmap.entries.items())},
        "goal_text": goal_frame.format(concl=pmap.clause(inst.correct.goal)),
        "base_fact_texts": [pmap.sentence(l) for l in inst.correct.base_facts],
        "rule_texts": [rule_texts[r] for r in inst.correct.rules],
        "correct_steps": correct_records,
        # an erroneous step equal to the correct one at its position renders
        # the same; it gets a copy, since annotated mode adds to it below
        "erroneous_steps": [
            dict(correct_records[i],
                 support_texts=list(correct_records[i]["support_texts"]))
            if i < len(correct) and s == correct[i] else render_step(s, i)
            for i, s in enumerate(erroneous)
        ],
    }
    if mode == "annotated":
        note = _ANNOTATIONS[inst.error_type.value]
        for i, step_record in enumerate(record["erroneous_steps"], start=1):
            if i >= inst.k:
                step_record["annotation"] = note
    return record


def realized(inst: Instance, nl_mode: str = "clean", seed: Optional[int] = None,
             client: Optional[TranslatorClient] = None) -> Instance:
    """Instance with its NL record and context attached."""
    map_seed = inst.seed if seed is None else seed
    pmap = build_predicate_map(inst, seed=map_seed, client=client)
    record = realize_instance(inst, pmap, mode=nl_mode, seed=map_seed)
    return dataclasses.replace(inst, nl=record, context=pmap.context)


def stored_text_mismatches(inst: Instance) -> list[str]:
    """One message per field of the record ``inst`` was read from, ``nl`` and
    ``context``, that differs from ``realized`` in the mode ``nl`` names. A
    record with a context and no nl, and one ``realized`` refuses (an unknown
    mode, a fact outside the universe), get one message. The rebuild is the
    offline templater's, so text from a ``TranslatorClient`` fails."""
    if inst.nl is None:
        return [] if inst.context is None else ["stored context without nl"]
    try:
        rebuilt = realized(inst, nl_mode=inst.nl.get("mode"))
    except ValueError as exc:
        return [f"cannot rebuild the stored nl: {exc}"]
    return [f"stored {name} disagrees with its realization"
            for name, stored, expected in (("nl", inst.nl, rebuilt.nl),
                                           ("context", inst.context, rebuilt.context))
            if stored != expected]


# ---------------------------------------------------------------------------
# label-leak lint


@dataclass(frozen=True)
class LeakViolation:
    step_index: int
    word: str
    text: str


def _scan_text(text: str) -> list[str]:
    """Word hits by position, then each phrase's, in ``LEAK_PHRASES`` order."""
    by_group: list[list[str]] = [[] for _ in range(1 + len(LEAK_PHRASES))]
    for m in _LEAK_RE.finditer(text):
        by_group[m.lastindex - 1].append(m.group(m.lastindex).lower())
    return [hit for hits in by_group for hit in hits]


def leak_lint(nl_record: dict, k: int) -> list[LeakViolation]:
    """Scan erroneous-chain step texts from the corruption on for the
    forbidden word list; word-boundary, case-insensitive."""
    violations: list[LeakViolation] = []
    steps = nl_record.get("erroneous_steps", [])
    for index, step_record in enumerate(steps, start=1):
        if index < k:
            continue
        fields = [step_record.get("text", ""), step_record.get("rule_text", ""),
                  step_record.get("conclusion_text", "")]
        fields.extend(step_record.get("support_texts", []))
        # ASCII text without any entry in its lower case has no hit. Other
        # text goes to the regex, whose case folding matches ``ſ`` to ``s``
        joined = "\n".join(fields)
        if joined.isascii():
            lowered = joined.lower()
            if not any(entry in lowered for entry in _LEAK_ENTRIES):
                continue
        for text in fields:
            for word in _scan_text(text):
                violations.append(LeakViolation(index, word, text))
    return violations
