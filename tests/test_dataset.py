from __future__ import annotations

import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from counterchain import (
    CorpusConfig,
    DEFAULT_ERROR_WEIGHTS,
    ErrorType,
    MalformedRecordError,
    SchemaMismatchError,
    SynthesisConfig,
    deserialize_instance,
    generate_corpus,
    label_steps,
    read_corpus,
    serialize_instance,
    type_quotas,
    verify_chain,
    verify_first_error,
)
from counterchain.dataset import _KNOWN_KEYS, build_instance, derive_seed, type_schedule

from . import fixtures


def test_label_steps_golden_bakery():
    inst = fixtures.bakery_instance()
    labels = label_steps(inst)
    assert [l.label for l in labels.erroneous] == \
        ["valid", "valid", "valid", "invalid", "invalid", "invalid"]
    assert all(l.label == "valid" for l in labels.correct)


def test_label_steps_error_at_last_step():
    inst = fixtures.navigator_instance()
    labels = label_steps(inst)
    assert [l.label for l in labels.erroneous].count("invalid") == 1
    assert labels.erroneous[-1].label == "invalid"


def test_default_weights_cover_all_types_and_published_mass():
    types = {e for e, _ in DEFAULT_ERROR_WEIGHTS}
    assert types == set(ErrorType)
    assert sum(w for _, w in DEFAULT_ERROR_WEIGHTS) == 20000


def test_type_quotas_largest_remainder_exact():
    quotas = type_quotas(20_000, DEFAULT_ERROR_WEIGHTS)
    assert sum(quotas.values()) == 20_000
    assert quotas[ErrorType.XOR_AS_EQUIV] == 3610
    assert quotas[ErrorType.VACUOUS_TRUTH_ERROR] == 571
    small = type_quotas(7, ((ErrorType.XOR_AS_OR, 2.0), (ErrorType.DROP_CONDITION, 1.0),
                            *[(e, 0.0) for e in ErrorType
                              if e not in (ErrorType.XOR_AS_OR, ErrorType.DROP_CONDITION)]))
    assert sum(small.values()) == 7
    assert small[ErrorType.XOR_AS_OR] == 5 and small[ErrorType.DROP_CONDITION] == 2


def test_corpus_config_rejects_missing_types():
    with pytest.raises(ValueError):
        CorpusConfig(total_count=5, seed=0,
                     error_weights=((ErrorType.XOR_AS_OR, 1.0),))
    with pytest.raises(ValueError):
        CorpusConfig(total_count=0, seed=0)


def test_type_schedule_deterministic_and_quota_exact():
    cfg = CorpusConfig(total_count=200, seed=11)
    a = type_schedule(cfg)
    b = type_schedule(cfg)
    assert a == b and len(a) == 200
    quotas = type_quotas(200, DEFAULT_ERROR_WEIGHTS)
    for e in ErrorType:
        assert a.count(e) == quotas[e]


def test_serialize_round_trip_golden():
    for inst in (fixtures.bakery_instance(), fixtures.navigator_instance()):
        line = serialize_instance(inst)
        back = deserialize_instance(line)
        assert back.correct.goal == inst.correct.goal
        assert back.correct.base_facts == inst.correct.base_facts
        assert back.correct.rules == inst.correct.rules
        assert back.k == inst.k
        assert back.error_type == inst.error_type
        for got, want in zip(back.correct.steps, inst.correct.steps):
            assert got == want
        for got, want in zip(back.erroneous.steps, inst.erroneous.steps):
            assert got == want
        assert serialize_instance(back) == line


def test_schema_mismatch_rejected():
    line = serialize_instance(fixtures.bakery_instance())
    obj = json.loads(line)
    obj["schema_version"] = 999
    with pytest.raises(SchemaMismatchError):
        deserialize_instance(json.dumps(obj))


def test_malformed_record_carries_line_number():
    with pytest.raises(MalformedRecordError) as err:
        deserialize_instance("{not json", line_number=17)
    assert "line 17" in str(err.value)


def test_unknown_field_is_a_malformed_record():
    line = serialize_instance(fixtures.bakery_instance())
    obj = json.loads(line)
    # the writer's keys are the reader's schema
    assert obj.keys() == _KNOWN_KEYS
    obj["future_field"] = {"nested": [1, 2, 3]}
    with pytest.raises(MalformedRecordError, match=r"unknown keys \['future_field'\] \(line 4\)"):
        deserialize_instance(json.dumps(obj), line_number=4)


def test_erroneous_steps_equal_to_the_correct_ones_are_shared(tmp_path):
    path = tmp_path / "c.jsonl"
    generate_corpus(CorpusConfig(total_count=20, seed=5), str(path))
    shared = 0
    for line in path.read_text().splitlines()[1:]:
        obj = json.loads(line)
        inst = deserialize_instance(line)
        correct = inst.correct.steps
        for i, (stored, step) in enumerate(zip(obj["erroneous_steps"],
                                               inst.erroneous.steps)):
            same = i < len(correct) and stored == obj["correct_steps"][i]
            assert (i < len(correct) and step is correct[i]) == same
            shared += same
        assert serialize_instance(inst) == line
    assert shared > 20


def test_tampered_prefix_step_is_parsed_on_its_own():
    inst = fixtures.bakery_instance()
    obj = json.loads(serialize_instance(inst))
    step = obj["erroneous_steps"][0]
    assert step == obj["correct_steps"][0] and inst.k > 1
    fact, value = step["conclusion"].split("=")
    step["conclusion"] = f"{fact}={value != 'True'}"
    back = deserialize_instance(json.dumps(obj))
    assert back.erroneous.steps[0] is not back.correct.steps[0]
    assert str(back.erroneous.steps[0].conclusion) == step["conclusion"]
    assert verify_chain(back.correct).valid
    assert verify_first_error(back).failures


def test_derive_seed_stable_and_spread():
    assert derive_seed(7, 0) == derive_seed(7, 0)
    seen = {derive_seed(7, i) for i in range(1000)}
    assert len(seen) == 1000
    assert derive_seed(7, 0) != derive_seed(8, 0)


def test_build_instance_matches_schedule_target():
    cfg = CorpusConfig(total_count=30, seed=3)
    schedule = type_schedule(cfg)
    for index in (0, 5, 12):
        inst, _ = build_instance(cfg, index, schedule[index])
        assert inst.error_type == schedule[index]
        assert verify_first_error(inst).ok


def test_generate_corpus_round_trip_and_stats(tmp_path):
    out = tmp_path / "corpus.jsonl"
    cfg = CorpusConfig(total_count=40, seed=5)
    stats = generate_corpus(cfg, str(out))
    assert stats.total == 40
    assert sum(stats.accepted_per_type.values()) == 40
    header, instances = read_corpus(str(out))
    assert header["config_digest"] == cfg.digest()
    assert len(instances) == 40
    for inst in instances:
        assert verify_chain(inst.correct).valid
        assert verify_first_error(inst).ok
        labels = label_steps(inst)
        first_invalid = next(l.index for l in labels.erroneous
                             if l.label == "invalid")
        assert first_invalid == inst.k
        line = serialize_instance(inst)
        assert serialize_instance(deserialize_instance(line)) == line


def test_generate_corpus_deterministic(tmp_path):
    cfg = CorpusConfig(total_count=25, seed=9)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    generate_corpus(cfg, str(a))
    generate_corpus(cfg, str(b))
    assert a.read_bytes() == b.read_bytes()


PINNED_CORPORA = [
    (CorpusConfig(total_count=60, seed=7),
     "cb353b2d9e9ad439b7bd6e566b765fde1a2f0fd5ecc603ca63e7a55a6f998ea7"),
    (CorpusConfig(total_count=20, seed=7,
                  synthesis=SynthesisConfig(step_count=(10, 12), max_facts=20)),
     "6480e64aa2150c02b3a083eda28a6538e2a3dedd37f1444a1df4f1799592a630"),
]


# sha256 of ``CorpusStats.to_text()`` for the default pinned corpus: the
# rejection counts show only here, so a change to the rejection loop that kept
# the corpus bytes would still show
PINNED_DEFAULT_STATS = "7dcadaeaf30bc0e5b351bdecb345210bfb96e7697cb228d1e28bbbe3c8eed5cb"


@pytest.mark.parametrize("workers", [1, 2])
def test_generate_corpus_stats_pinned(tmp_path, workers):
    cfg, digest = PINNED_CORPORA[0]
    out = tmp_path / "pinned.jsonl"
    stats = generate_corpus(cfg, str(out), workers=workers)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert hashlib.sha256(stats.to_text().encode()).hexdigest() == PINNED_DEFAULT_STATS


class _RecordingPool:
    """A stand-in for ``ProcessPoolExecutor`` that records its size and runs
    the tasks in this process."""

    sizes: list[int] = []

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.mark.parametrize("count, workers, expected", [(3, 8, [3]), (5, 2, [2]), (1, 4, [])])
def test_pool_never_holds_more_processes_than_instances(tmp_path, monkeypatch,
                                                        count, workers, expected):
    """The pool is sized min(workers, count); a single instance needs no pool.
    The output is the single-process output either way."""
    import concurrent.futures
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    cfg = CorpusConfig(total_count=count, seed=3)
    pooled, single = tmp_path / "pooled.jsonl", tmp_path / "single.jsonl"
    generate_corpus(cfg, str(pooled), workers=workers)
    assert _RecordingPool.sizes == expected
    generate_corpus(cfg, str(single), workers=1)
    assert pooled.read_bytes() == single.read_bytes()


@pytest.mark.parametrize("cfg, digest", PINNED_CORPORA, ids=["default", "wide"])
def test_generate_corpus_bytes_pinned(tmp_path, cfg, digest):
    """A corpus is a pure function of (config, seed), so a refactor must keep
    these bytes. A change that alters the corpus on purpose updates the
    digests here and records the change in CHANGES.md."""
    out = tmp_path / "pinned.jsonl"
    generate_corpus(cfg, str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


_PINNED_SCRIPT = """
import hashlib, sys
from counterchain import generate_corpus
from tests.test_dataset import PINNED_CORPORA
for i, (cfg, _) in enumerate(PINNED_CORPORA):
    out = f"{sys.argv[1]}/{i}.jsonl"
    generate_corpus(cfg, out)
    print(hashlib.sha256(open(out, "rb").read()).hexdigest())
"""


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_pinned_corpora_do_not_depend_on_the_hash_seed(tmp_path, hash_seed):
    """String hashes, and so the iteration order of sets keyed by them, follow
    PYTHONHASHSEED; no corpus byte may."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])}
    result = subprocess.run([sys.executable, "-c", _PINNED_SCRIPT, str(tmp_path)],
                            env=env, cwd=root, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [digest for _, digest in PINNED_CORPORA]


def test_bytes_gate_tool_reports_each_run(tmp_path):
    """``tools/bytes_gate.py --read`` prints a corpus and stats digest per
    workload and worker count, then each read command's exit code and
    digests, and last the exit code and stdout digest of ``verify`` on a
    tampered copy; it exits 0 when the worker counts agree, every read exits 0
    and ``verify`` prints a FAIL line for every tampered record. Nine records
    get each of the nine edits once."""
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, str(root / "tools" / "bytes_gate.py"),
                             "--count", "9", "--read"], cwd=tmp_path, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    names = ("seed7", "seed11", "wide-seed7")
    runs = [line.split() for line in lines if " corpus " in line]
    assert [(r[0], r[1]) for r in runs] == [
        (name, f"workers={w}") for name in names for w in (1, 2)]
    assert all(len(r[3]) == len(r[5]) == 64 for r in runs)
    reads = [line.split() for line in lines if " stdout " in line]
    labels = ["verify", "stats", "eval", "realize-clean", "realize-annotated",
              "verify-clean", "verify-annotated", "verify-tampered"]
    assert [(r[0], r[1]) for r in reads] == [(n, l) for n in names for l in labels]
    assert all(r[2:4] == ["exit", "1" if r[1] == "verify-tampered" else "0"]
               and len(r[5]) == 64 for r in reads)
    assert [len(r) for r in reads if r[1] in ("eval", "realize-clean")] == [8] * 6
    assert not [line for line in lines if "tampered records" in line]
    # every file goes to the tool's temporary directory, none to the caller's
    assert not list(tmp_path.iterdir())
    assert lines[-1] == "ok"


def test_stats_share_identity(tmp_path):
    out = tmp_path / "c.jsonl"
    cfg = CorpusConfig(total_count=33, seed=2)
    stats = generate_corpus(cfg, str(out))
    assert sum(stats.accepted_per_type.values()) == stats.total == 33
    shares = [count / stats.total for count in stats.accepted_per_type.values()]
    assert abs(sum(shares) - 1.0) < 1e-9
    printed = [float(line.split("=")[1]) for line in stats.to_text().splitlines()
               if line.startswith("share.")]
    assert abs(sum(printed) - 1.0) < 1e-3  # rounded rendering


def test_generation_exhaustion_raises_with_histogram(monkeypatch):
    from counterchain import CorpusExhausted, SynthesisConfig, dataset
    monkeypatch.setattr(dataset, "MAX_CHAIN_ATTEMPTS", 6)
    # no spare implications and no side steps: the vacuous corruption has no
    # realizable site, so a corpus demanding it must exhaust
    starved = CorpusConfig(
        total_count=1, seed=0,
        error_weights=tuple(
            (e, 1.0 if e is ErrorType.VACUOUS_TRUTH_ERROR else 0.0)
            for e in ErrorType),
        synthesis=SynthesisConfig(spare_impl_rules=0, side_steps=(0, 0)),
    )
    with pytest.raises(CorpusExhausted) as err:
        generate_corpus(starved, "/dev/null")
    assert err.value.reasons  # rejection histogram travels with the error


def test_corpus_exhausted_pickles_with_histogram():
    # worker processes hand the error back to the parent by pickling
    from counterchain import CorpusExhausted
    back = pickle.loads(pickle.dumps(CorpusExhausted("index 3", {"infeasible": 2})))
    assert back.reasons == {"infeasible": 2}
    assert str(back) == "index 3; rejections: {'infeasible': 2}"


def test_hash_split_deterministic_and_balanced():
    from counterchain import hash_split
    ids = [f"inst-{i:05d}" for i in range(4000)]
    fractions = {"train": 0.8, "val": 0.1, "test": 0.1}
    a = hash_split(ids, fractions, seed=7)
    b = hash_split(ids, fractions, seed=7)
    assert a == b
    counts = {name: 0 for name in fractions}
    for name in a.values():
        counts[name] += 1
    assert abs(counts["train"] / 4000 - 0.8) < 0.03
    assert abs(counts["val"] / 4000 - 0.1) < 0.02
    # membership is stable under corpus growth
    grown = hash_split(ids + ["extra-1"], fractions, seed=7)
    assert all(grown[i] == a[i] for i in ids)
    assert hash_split(ids, fractions, seed=8) != a


def test_hash_split_rejects_bad_fractions():
    from counterchain import hash_split
    with pytest.raises(ValueError):
        hash_split(["a"], {})
    with pytest.raises(ValueError):
        hash_split(["a"], {"train": 0.0})


def test_error_group_field_validated_on_read():
    line = serialize_instance(fixtures.bakery_instance())
    obj = json.loads(line)
    obj["error_group"] = "truth_state"  # contradicts missing_prerequisite
    with pytest.raises(MalformedRecordError):
        deserialize_instance(json.dumps(obj))


def test_golden_fixture_corpus_verifies_via_cli(tmp_path, capsys):
    from counterchain.cli import main
    path = tmp_path / "golden.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for inst in (fixtures.bakery_instance(), fixtures.navigator_instance()):
            fh.write(serialize_instance(inst) + "\n")
    assert main(["verify", str(path)]) == 0
    assert "0 failures" in capsys.readouterr().out
