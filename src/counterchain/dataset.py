"""Instance labeling, corpus generation, and line-delimited serialization.

A corpus file is one JSON object per line: a header record carrying the
schema version, seed, and effective-config digest, then one instance record
per line. Rules, facts, and steps are stored as canonical text so records
stay human-auditable. An instance record holds only the keys of
``_KNOWN_KEYS``: a key outside them, or a stored field of another type (an
``id`` that is not a non-empty string, a ``context`` that is not null or an
object of string ``name`` and ``background``, an ``nl`` that is not null or
an object, a header ``seed`` that is not a signed 64-bit integer), is a
malformed record, and so is a record naming more facts than the prover's
cap. ``stream_corpus`` reads a file one record at a time, so a reader's
memory does not grow with the file; ``read_corpus`` collects the same
records into a list.

Corpus generation hits the configured error-type mix exactly: the weight
table is converted into per-type quotas by largest remainder, shuffled into a
seeded per-index schedule, and each index rejection-samples chains and
injection sites until its scheduled type verifies. Every index derives its
own seed from (corpus seed, index), so output is byte-identical regardless
of worker count.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import struct
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .injection import (
    ROWS,
    ContextProfile,
    DownstreamStuck,
    ErroneousChain,
    ErrorType,
    InjectionInfeasible,
    Instance,
    inject,
    k_positions,
    verify_first_error,
)
from .logic import parse_literal, parse_rule, render_literal, render_rule
from .synthesis import CorrectChain, Step, SynthesisConfig, synthesize_chain, verify_chain

SCHEMA_VERSION = 1

# a corpus seed lies in [-SEED_BOUND, SEED_BOUND), the range ``derive_seed`` packs
SEED_BOUND = 2 ** 63

# chains drawn per index before giving up, and injection sites tried per chain
MAX_CHAIN_ATTEMPTS = 600
SITES_PER_CHAIN = 4

# published error-type mix of the reference 20k corpus, as weights
DEFAULT_ERROR_WEIGHTS: tuple[tuple[ErrorType, float], ...] = (
    (ErrorType.XOR_AS_EQUIV, 3610),
    (ErrorType.XOR_AS_OR, 3609),
    (ErrorType.OR_AND_CONFUSION, 3598),
    (ErrorType.DROP_CONDITION, 1934),
    (ErrorType.IMPLICATION_MISUSE, 1466),
    (ErrorType.CONVERSE_ERROR, 1299),
    (ErrorType.REDUNDANT_STEP, 1185),
    (ErrorType.CIRCULAR_REFERENCE, 946),
    (ErrorType.PARTIAL_EVALUATION, 913),
    (ErrorType.MISSING_PREREQUISITE, 869),
    (ErrorType.VACUOUS_TRUTH_ERROR, 571),
)


class SchemaMismatchError(ValueError):
    pass


class MalformedRecordError(ValueError):
    def __init__(self, message: str, line_number: Optional[int] = None):
        where = f" (line {line_number})" if line_number else ""
        super().__init__(f"{message}{where}")
        self.line_number = line_number


class CorpusExhausted(RuntimeError):
    def __init__(self, message: str, reasons: dict[str, int]):
        # both arguments stay in ``args`` so the error pickles back from a
        # worker process intact
        super().__init__(message, reasons)
        self.reasons = reasons

    def __str__(self) -> str:
        return f"{self.args[0]}; rejections: {self.reasons}"


# ---------------------------------------------------------------------------
# labels


@dataclass(frozen=True)
class StepLabel:
    index: int
    label: str  # "valid" | "invalid"


@dataclass(frozen=True)
class InstanceLabels:
    correct: tuple[StepLabel, ...]
    erroneous: tuple[StepLabel, ...]


def label_steps(inst: Instance) -> InstanceLabels:
    """Correct-chain steps are all valid; in the erroneous chain the first
    corrupted step and everything after it is invalid."""
    correct, erroneous = _label_texts(inst)
    return InstanceLabels(
        tuple(map(StepLabel, (s.index for s in inst.correct.steps), correct)),
        tuple(map(StepLabel, (s.index for s in inst.erroneous.steps), erroneous)))


def _label_texts(inst: Instance) -> tuple[list[str], list[str]]:
    """The labels of ``label_steps`` as plain strings, as a record stores them."""
    k = inst.k
    return (["valid"] * len(inst.correct.steps),
            ["valid" if s.index < k else "invalid" for s in inst.erroneous.steps])


# ---------------------------------------------------------------------------
# serialization


def _step_to_obj(step: Step) -> dict:
    return {
        "supports": [render_literal(l) for l in step.supports],
        "rule": render_rule(step.rule),
        "conclusion": render_literal(step.conclusion),
    }


def _parsed(parse, value, field: str):
    """``parse(value)`` for a string ``value``. The type is checked before the
    parse memo, so any other type, hashable or not, fails the same way."""
    if not isinstance(value, str):
        raise TypeError(f"{field} must be a string, not {type(value).__name__}")
    return parse(value)


def _array(value, field: str) -> list:
    """``value`` if it is a JSON array: an object would iterate as its keys."""
    if not isinstance(value, list):
        raise TypeError(f"{field} must be an array, not {type(value).__name__}")
    return value


def _integer(value, field: str, line_number: Optional[int]) -> int:
    """``value`` if it is a JSON integer (``true``, ``7.0``, ``"7"`` are not)."""
    if type(value) is not int:
        raise MalformedRecordError(f"{field} {value!r} is not an integer", line_number)
    return value


def _step_from_obj(obj: dict, index: int, chain: str) -> Step:
    return Step(
        index=index,
        supports=tuple(_parsed(parse_literal, t, f"{chain} supports entry")
                       for t in _array(obj["supports"], f"{chain} supports")),
        rule=_parsed(parse_rule, obj["rule"], f"{chain} rule"),
        conclusion=_parsed(parse_literal, obj["conclusion"], f"{chain} conclusion"),
    )


# every key an instance record may hold; the reader refuses any other
_KNOWN_KEYS = frozenset((
    "record", "schema_version", "id", "seed", "goal", "base_facts", "rules",
    "correct_steps", "erroneous_steps", "first_error_index", "error_type",
    "error_group", "correct_labels", "erroneous_labels",
    "reached_goal_polarity", "context", "nl",
))
_DERIVED_KEYS = ("error_group", "correct_labels", "erroneous_labels",
                 "reached_goal_polarity")


def _derived_fields(inst: Instance) -> dict:
    """Record fields that follow from the error type, the step lists and k."""
    correct_labels, erroneous_labels = _label_texts(inst)
    return {
        "error_group": inst.error_type.group.value,
        "correct_labels": correct_labels,
        "erroneous_labels": erroneous_labels,
        "reached_goal_polarity": inst.reached_goal_polarity,
    }


def stored_field_mismatches(inst: Instance) -> list[str]:
    """One message per derived field of the record ``inst`` was read from
    that disagrees with the instance's error type, steps and first-error
    index."""
    return [f"stored {key} {inst.stored[key]!r} disagrees with the record "
            f"(expected {expected!r})"
            for key, expected in _derived_fields(inst).items()
            if key in inst.stored and inst.stored[key] != expected]


def serialize_instance(inst: Instance) -> str:
    obj: dict = {
        "record": "instance",
        "schema_version": SCHEMA_VERSION,
        "id": inst.id,
        "seed": inst.seed,
        "goal": render_literal(inst.correct.goal),
        "base_facts": [render_literal(l) for l in inst.correct.base_facts],
        "rules": [render_rule(r) for r in inst.correct.rules],
        "correct_steps": [_step_to_obj(s) for s in inst.correct.steps],
        "erroneous_steps": [_step_to_obj(s) for s in inst.erroneous.steps],
        "first_error_index": inst.k,
        "error_type": inst.error_type.value,
        **_derived_fields(inst),
        "context": ({"name": inst.context.name, "background": inst.context.background}
                    if inst.context is not None else None),
        "nl": inst.nl,
    }
    return json.dumps(obj, separators=(",", ":"))


def _context(value, line_number: Optional[int]) -> Optional[ContextProfile]:
    """The stored ``context``: null, or an object of exactly a string ``name``
    and a string ``background``."""
    if value is None:
        return None
    if not (isinstance(value, dict) and value.keys() == {"name", "background"}
            and all(isinstance(v, str) for v in value.values())):
        raise MalformedRecordError(f"context {value!r} is not null or an object "
                                   f"of string name and background", line_number)
    return ContextProfile(value["name"], value["background"])


def deserialize_instance(line: str, line_number: Optional[int] = None) -> Instance:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedRecordError(f"not valid JSON: {exc}", line_number) from exc
    if not isinstance(obj, dict) or obj.get("record") != "instance":
        raise MalformedRecordError("not an instance record", line_number)
    version = obj.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaMismatchError(
            f"schema_version {version!r} unsupported (expected {SCHEMA_VERSION})")
    unknown = obj.keys() - _KNOWN_KEYS
    if unknown:
        raise MalformedRecordError(f"unknown keys {sorted(unknown)}", line_number)
    try:
        ident = obj["id"]
        if not isinstance(ident, str) or not ident:
            raise MalformedRecordError(f"id {ident!r} is not a non-empty string",
                                       line_number)
        goal = _parsed(parse_literal, obj["goal"], "goal")
        base = tuple(_parsed(parse_literal, t, "base_facts entry")
                     for t in _array(obj["base_facts"], "base_facts"))
        rules = tuple(_parsed(parse_rule, t, "rules entry")
                      for t in _array(obj["rules"], "rules"))
        correct_objs = _array(obj["correct_steps"], "correct_steps")
        correct_steps = tuple(_step_from_obj(s, i + 1, "correct_steps")
                              for i, s in enumerate(correct_objs))
        # an erroneous step stored as the correct step at its position is
        # that step: equal JSON parses to an equal Step
        erroneous_steps = tuple(
            correct_steps[i] if i < len(correct_objs) and s == correct_objs[i]
            else _step_from_obj(s, i + 1, "erroneous_steps")
            for i, s in enumerate(_array(obj["erroneous_steps"], "erroneous_steps")))
        for name, steps in (("correct_steps", correct_steps),
                            ("erroneous_steps", erroneous_steps)):
            if not steps:
                raise MalformedRecordError(f"{name} is empty", line_number)
        correct = CorrectChain(base, rules, correct_steps, goal)
        # built now, and cached on the chain for its readers, so a universe
        # over the prover's cap is a malformed record
        correct.theory()
        error_type = ErrorType(obj["error_type"])
        stored_group = obj.get("error_group")
        if stored_group is not None and stored_group != error_type.group.value:
            raise MalformedRecordError(
                f"error_group {stored_group!r} contradicts error_type "
                f"{error_type.value!r}", line_number)
        erroneous = ErroneousChain(
            steps=erroneous_steps,
            first_error_index=_integer(obj["first_error_index"],
                                       "first_error_index", line_number),
            error_type=error_type,
        )
        nl = obj.get("nl")
        if nl is not None and not isinstance(nl, dict):
            raise MalformedRecordError(f"nl must be null or an object, not "
                                       f"{type(nl).__name__}", line_number)
        stored = {k: obj[k] for k in _DERIVED_KEYS if k in obj}
        return Instance(
            id=ident, correct=correct, erroneous=erroneous,
            seed=_integer(obj.get("seed", 0), "seed", line_number),
            context=_context(obj.get("context"), line_number), nl=nl, stored=stored,
        )
    except (KeyError, ValueError, TypeError) as exc:
        if isinstance(exc, (SchemaMismatchError, MalformedRecordError)):
            raise
        raise MalformedRecordError(f"malformed instance record: {exc}",
                                   line_number) from exc


def header_record(cfg: "CorpusConfig") -> str:
    obj = {
        "record": "header",
        "schema_version": SCHEMA_VERSION,
        "seed": cfg.seed,
        "total_count": cfg.total_count,
        "config_digest": cfg.digest(),
    }
    return json.dumps(obj, separators=(",", ":"))


def _parse_header(line: str, line_number: int) -> Optional[dict]:
    """The header object if ``line`` is a header record, else None."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedRecordError(f"not valid JSON: {exc}", line_number) from exc
    if not isinstance(obj, dict) or obj.get("record") != "header":
        return None
    version = obj.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaMismatchError(f"schema_version {version!r} unsupported")
    if obj.get("total_count") is not None:
        _integer(obj["total_count"], "header total_count", line_number)
    seed = obj.get("seed")
    if seed is not None and not -SEED_BOUND <= _integer(seed, "header seed",
                                                       line_number) < SEED_BOUND:
        raise MalformedRecordError(f"header seed {seed} is outside the signed "
                                   f"64-bit range", line_number)
    return obj


def stream_corpus(path: str) -> tuple[Optional[dict], Iterator[Instance]]:
    """Returns (header, instances): the header is read now, each instance
    record only when the iterator reaches it, so a reader holds one record
    at a time.

    Only the first non-blank line may be a header. The iterator raises on a
    bad record with its line number, and, when the header states a
    ``total_count``, after the last record if their number differs from it.
    """
    records = _records(path)
    return next(records), records


def _records(path: str) -> Iterator:
    """The header (None if the file has none), then each instance."""
    header: Optional[dict] = None
    first = True
    count = 0
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if first:
                first = False
                header = _parse_header(line, number)
                yield header
                if header is not None:
                    continue
            yield deserialize_instance(line, number)
            count += 1
    if first:  # no non-blank line, so no header either
        yield header
    expected = header.get("total_count") if header else None
    if expected is not None and expected != count:
        raise MalformedRecordError(f"header total_count {expected!r} but "
                                   f"{count} instance records")


def read_corpus(path: str) -> tuple[Optional[dict], list[Instance]]:
    """Returns (header, instances), every record of the file parsed into one
    list; ``stream_corpus`` with the same checks, for a caller that needs them
    all at once."""
    header, instances = stream_corpus(path)
    return header, list(instances)


# ---------------------------------------------------------------------------
# corpus generation


@dataclass(frozen=True)
class CorpusConfig:
    total_count: int
    seed: int
    error_weights: tuple[tuple[ErrorType, float], ...] = DEFAULT_ERROR_WEIGHTS
    synthesis: SynthesisConfig = SynthesisConfig()
    k_first: int = 2
    k_exclude_last: bool = True

    def __post_init__(self):
        if self.total_count <= 0:
            raise ValueError("total_count must be positive")
        covered = {e for e, _ in self.error_weights}
        missing = set(ErrorType) - covered
        if missing:
            raise ValueError(f"error_weights must cover all types; missing "
                             f"{sorted(t.value for t in missing)}")
        weights = [w for _, w in self.error_weights]
        if not (all(0 <= w < math.inf for w in weights) and sum(weights) > 0):
            raise ValueError("error weights must be finite and non-negative, "
                             "with a positive sum")
        if self.k_first < 1:
            raise ValueError(f"k_first {self.k_first} must be at least 1")
        if not -SEED_BOUND <= self.seed < SEED_BOUND:
            raise ValueError(f"seed {self.seed} is outside the signed 64-bit range")

    def digest(self) -> str:
        payload = repr((self.total_count, self.seed, self.error_weights,
                        self.synthesis, self.k_first, self.k_exclude_last,
                        SCHEMA_VERSION)).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


def derive_seed(seed: int, index: int, tag: str = "") -> int:
    digest = hashlib.blake2b(
        struct.pack("<qq", seed, index) + tag.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") & (2 ** 63 - 1)


def instance_id(seed: int, index: int) -> str:
    """The id of record ``index`` of the corpus whose header seed is ``seed``."""
    return f"{seed & 0xFFFFFFFF:08x}-{index:06d}"


def position_mismatches(inst: Instance, corpus_seed: int,
                        previous: int) -> tuple[list[str], int]:
    """Messages for the ``id`` and ``seed`` of ``inst``, read from the corpus
    whose header seed is ``corpus_seed``, with ``previous`` the largest index
    the records before it named (-1 before the first). The number after the
    id's last ``-`` is the record's index; the id must be ``instance_id`` of
    it, the seed ``derive_seed`` of it, and the index above ``previous``, so
    a duplicate id fails. Returns the messages and the new ``previous``."""
    tail = inst.id.rpartition("-")[2]
    # at most 18 digits, so the index is one ``derive_seed`` can pack
    if not (tail.isascii() and tail.isdigit() and len(tail) <= 18):
        return [f"id {inst.id!r} names no record index"], previous
    index = int(tail)
    problems = [f"stored {name} {stored!r} disagrees with record index {index} "
                f"(expected {expected!r})"
                for name, stored, expected in (
                    ("id", inst.id, instance_id(corpus_seed, index)),
                    ("seed", inst.seed, derive_seed(corpus_seed, index)))
                if stored != expected]
    if index <= previous:
        problems.append(f"record index {index} does not follow index {previous}")
    return problems, max(index, previous)


def hash_split(ids: Iterable[str], fractions: dict[str, float],
               seed: int = 0) -> dict[str, str]:
    """Stable id → split assignment by seeded hashing.

    Each id lands in the same split for a given seed regardless of corpus
    order or size, so splits stay disjoint and reproducible when a corpus is
    extended.
    """
    if not fractions:
        raise ValueError("no splits given")
    if any(f < 0 for f in fractions.values()):
        raise ValueError("fractions must be non-negative")
    mass = sum(fractions.values())
    if mass <= 0:
        raise ValueError("fractions sum to zero")
    edges: list[tuple[float, str]] = []
    acc = 0.0
    for name, fraction in fractions.items():
        acc += fraction / mass
        edges.append((acc, name))
    out: dict[str, str] = {}
    for ident in ids:
        digest = hashlib.blake2b(f"{seed}:{ident}".encode(),
                                 digest_size=8).digest()
        point = int.from_bytes(digest, "little") / 2 ** 64
        for edge, name in edges:
            if point < edge or (edge, name) == edges[-1]:
                out[ident] = name
                break
    return out


def type_quotas(total: int, weights: Iterable[tuple[ErrorType, float]],
                ) -> dict[ErrorType, int]:
    """Largest-remainder allocation of ``total`` over the weight table."""
    weights = list(weights)
    mass = sum(w for _, w in weights)
    raw = [(e, total * w / mass) for e, w in weights]
    quotas = {e: int(x) for e, x in raw}
    short = total - sum(quotas.values())
    remainders = sorted(raw, key=lambda ew: (-(ew[1] - int(ew[1])), ew[0].value))
    for e, _ in remainders[:short]:
        quotas[e] += 1
    return quotas


def type_schedule(cfg: CorpusConfig) -> list[ErrorType]:
    """Per-index target types: quota slots in a seeded shuffle, so workers can
    generate any index independently."""
    quotas = type_quotas(cfg.total_count, cfg.error_weights)
    slots: list[ErrorType] = []
    for e, _ in DEFAULT_ERROR_WEIGHTS:  # stable type order
        slots.extend([e] * quotas.get(e, 0))
    rng = random.Random(derive_seed(cfg.seed, -1, "schedule"))
    rng.shuffle(slots)
    return slots


def build_instance(cfg: CorpusConfig, index: int,
                   target: ErrorType) -> tuple[Instance, dict[str, int]]:
    """Rejection-sample chains and injection sites until ``target`` verifies.
    The chain of an accepted instance is proved here, once, by ``verify_chain``."""
    seed = derive_seed(cfg.seed, index)
    rng = random.Random(seed)
    reasons: dict[str, int] = {}

    def note(reason: str) -> None:
        reasons[reason] = reasons.get(reason, 0) + 1

    # only the target's row is asked; a shape-changing corruption must keep
    # the erroneous chain inside the configured step band
    row = ROWS[target]
    lo, hi = cfg.synthesis.step_count

    for _ in range(MAX_CHAIN_ATTEMPTS):
        chain = synthesize_chain(cfg.synthesis, rng.getrandbits(63))
        if not lo <= len(chain.steps) + row.length_shift <= hi:
            note("length-budget")
            continue
        positions = k_positions(len(chain.steps), cfg.k_first, cfg.k_exclude_last)
        sites = [k for k in positions if row.applies(chain, k)]
        if not sites:
            note("no-applicable-site")
            continue
        rng.shuffle(sites)
        for k in sites[:SITES_PER_CHAIN]:
            try:
                err = inject(chain, k, target, seed=rng.getrandbits(63))
            except InjectionInfeasible:
                note("infeasible")
                continue
            except DownstreamStuck:
                note("downstream-stuck")
                continue
            inst = Instance(id=instance_id(cfg.seed, index),
                            correct=chain, erroneous=err, seed=seed)
            report = verify_first_error(inst)
            if not report.ok:
                note(report.reason().split(":")[0])
                continue
            # an invalid chain is a generator/verifier disagreement: drop it
            if verify_chain(chain).valid:
                return inst, reasons
            note("chain-invalid")
            break
    raise CorpusExhausted(
        f"index {index}: could not realize {target.value} after "
        f"{MAX_CHAIN_ATTEMPTS} chains", reasons)


@dataclass
class CorpusStats:
    total: int = 0
    accepted_per_type: dict[str, int] = field(default_factory=dict)
    rejections: dict[str, int] = field(default_factory=dict)
    mean_step_count: float = 0.0
    distinct_templates: int = 0

    def to_text(self) -> str:
        lines = [f"total = {self.total}"]
        for name in sorted(self.accepted_per_type):
            lines.append(f"accepted.{name} = {self.accepted_per_type[name]}")
        share_mass = sum(self.accepted_per_type.values()) or 1
        for name in sorted(self.accepted_per_type):
            lines.append(f"share.{name} = "
                         f"{self.accepted_per_type[name] / share_mass:.4f}")
        for name in sorted(self.rejections):
            lines.append(f"rejected.{name} = {self.rejections[name]}")
        lines.append(f"mean_step_count = {self.mean_step_count:.4f}")
        lines.append(f"distinct_templates = {self.distinct_templates}")
        return "\n".join(lines) + "\n"


_WORKER_CFG: Optional[CorpusConfig] = None


def _init_worker(cfg: CorpusConfig) -> None:
    global _WORKER_CFG
    _WORKER_CFG = cfg


def _worker_build(args: tuple[int, str],
                  ) -> tuple[str, str, int, tuple[str, ...], dict[str, int]]:
    index, target_value = args
    inst, reasons = build_instance(_WORKER_CFG, index, ErrorType(target_value))
    line = serialize_instance(inst)
    templates = tuple({r.template.value for r in inst.correct.rules})
    return line, target_value, len(inst.correct.steps), templates, reasons


def generate_instances(cfg: CorpusConfig, workers: int = 1,
                       ) -> Iterator[tuple[str, str, int, tuple[str, ...], dict[str, int]]]:
    """Yields (line, error type, step count, templates, rejection reasons) in
    index order. The pool holds at most one process per instance."""
    schedule = type_schedule(cfg)
    tasks = [(i, schedule[i].value) for i in range(cfg.total_count)]
    workers = min(workers, cfg.total_count)
    if workers <= 1:
        _init_worker(cfg)
        for task in tasks:
            yield _worker_build(task)
        return
    # imported here: it pulls in multiprocessing, socket and pickle, which no
    # single-process command needs
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(cfg,)) as pool:
        chunk = max(1, cfg.total_count // (workers * 8))
        yield from pool.map(_worker_build, tasks, chunksize=chunk)


def generate_corpus(cfg: CorpusConfig, out_path: str, workers: int = 1,
                    ) -> CorpusStats:
    """Write exactly cfg.total_count verified instances plus a header line;
    byte-identical output for a fixed config regardless of worker count."""
    stats = CorpusStats()
    step_total = 0
    templates: set[str] = set()
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(header_record(cfg) + "\n")
        for line, type_value, n_steps, used, reasons in generate_instances(cfg, workers):
            fh.write(line + "\n")
            stats.total += 1
            stats.accepted_per_type[type_value] = \
                stats.accepted_per_type.get(type_value, 0) + 1
            step_total += n_steps
            templates.update(used)
            for reason, count in reasons.items():
                stats.rejections[reason] = stats.rejections.get(reason, 0) + count
    if stats.total:
        stats.mean_step_count = step_total / stats.total
    stats.distinct_templates = len(templates)
    return stats
