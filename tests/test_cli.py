from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from counterchain import CorpusConfig, ErrorType, RuleTemplate, generate_corpus
from counterchain.cli import main, parse_kv_file
from counterchain.dataset import derive_seed, instance_id
from counterchain.logic import PARSE_CACHE_SIZE


def _run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_writes_corpus_and_stats(tmp_path, capsys):
    out = tmp_path / "c.jsonl"
    code, stdout, _ = _run(capsys, "synth", "--count", "20", "--seed", "7",
                           "--out", str(out))
    assert code == 0
    assert "config_digest" in stdout
    lines = out.read_text().splitlines()
    assert len(lines) == 21  # header + 20 instances
    assert json.loads(lines[0])["record"] == "header"
    stats_text = (tmp_path / "c.jsonl.stats").read_text()
    assert "total = 20" in stats_text
    assert "config_digest" in stats_text


def test_synth_deterministic_across_invocations(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert _run(capsys, "synth", "--count", "15", "--seed", "3",
                "--out", str(a))[0] == 0
    assert _run(capsys, "synth", "--count", "15", "--seed", "3",
                "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_passes_fresh_corpus(tmp_path, capsys):
    out = tmp_path / "c.jsonl"
    _run(capsys, "synth", "--count", "12", "--seed", "1", "--out", str(out))
    code, stdout, _ = _run(capsys, "verify", str(out))
    assert code == 0
    assert "0 failures" in stdout


def test_verify_catches_corrupted_error_index(tmp_path, capsys):
    out = tmp_path / "c.jsonl"
    _run(capsys, "synth", "--count", "8", "--seed", "2", "--out", str(out))
    lines = out.read_text().splitlines()
    record = json.loads(lines[3])
    record["first_error_index"] += 1
    lines[3] = json.dumps(record, separators=(",", ":"))
    mangled = tmp_path / "mangled.jsonl"
    mangled.write_text("\n".join(lines) + "\n")
    code, stdout, _ = _run(capsys, "verify", str(mangled))
    assert code == 1
    assert "1 failures" in stdout
    assert record["id"] in stdout


def test_realize_clean_mode_lint_free(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    _run(capsys, "synth", "--count", "10", "--seed", "4", "--out", str(corpus))
    out = tmp_path / "nl.jsonl"
    code, stdout, _ = _run(capsys, "realize", str(corpus), "--out", str(out))
    assert code == 0
    assert "0 lint violations" in stdout
    lines = out.read_text().splitlines()
    assert len(lines) == 11
    assert "config_digest" in json.loads(lines[0])
    record = json.loads(lines[1])
    assert record["nl"]["mode"] == "clean"
    assert record["nl"]["correct_steps"]
    # the realized corpus still re-verifies
    assert _run(capsys, "verify", str(out))[0] == 0


def test_realize_annotated_mode(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    _run(capsys, "synth", "--count", "5", "--seed", "6", "--out", str(corpus))
    out = tmp_path / "nl.jsonl"
    code, _, _ = _run(capsys, "realize", str(corpus), "--out", str(out),
                      "--nl-mode", "annotated")
    assert code == 0
    record = json.loads(out.read_text().splitlines()[1])
    k = record["first_error_index"]
    notes = [("annotation" in s) for s in record["nl"]["erroneous_steps"]]
    assert all(notes[k - 1:]) and not any(notes[: k - 1])


def test_eval_oracle_closed_loop(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    _run(capsys, "synth", "--count", "15", "--seed", "5", "--out", str(corpus))
    report = tmp_path / "report.json"
    code, stdout, _ = _run(capsys, "eval", "--corpus", str(corpus),
                           "--judge", "oracle", "--report", str(report))
    assert code == 0
    assert "first_error = 1.0000" in stdout
    assert "all_step = 1.0000" in stdout
    data = json.loads(report.read_text())
    assert data["corpus"]["first_error_acc"] == 1.0


def test_eval_constant_judge_never_localizes(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    _run(capsys, "synth", "--count", "10", "--seed", "8", "--out", str(corpus))
    code, stdout, _ = _run(capsys, "eval", "--corpus", str(corpus),
                           "--judge", "constant:1")
    assert code == 0
    assert "first_error = 0.0000" in stdout


def test_eval_pools_fixture(tmp_path, capsys):
    pools = tmp_path / "pools.json"
    pools.write_text(json.dumps({"problems": [
        {"candidates": [
            {"step_scores": [0.9, 0.2], "answer": "A", "correct": False},
            {"step_scores": [0.6, 0.5], "answer": "B", "correct": True},
        ]},
    ]}))
    code, stdout, _ = _run(capsys, "eval", "--pools", str(pools))
    assert code == 0
    assert "bestofk_accuracy = 1.0000" in stdout


def test_eval_without_inputs_is_usage_error(capsys):
    code, _, stderr = _run(capsys, "eval")
    assert code == 2
    assert "nothing to evaluate" in stderr


def test_eval_scored_records(tmp_path, capsys):
    scored = tmp_path / "scored.jsonl"
    rows = [
        {"step_scores": [0.9, 0.8, 0.2, 0.1],
         "labels": ["valid", "valid", "invalid", "invalid"],
         "first_error_index": 3},
        {"step_scores": [0.9, 0.9], "labels": ["valid", "valid"],
         "first_error_index": None},
    ]
    scored.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    code, stdout, _ = _run(capsys, "eval", "--scored", str(scored))
    assert code == 0
    assert "first_error = 1.0000" in stdout
    assert "all_step = 1.0000" in stdout


def test_stats_table(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    _run(capsys, "synth", "--count", "22", "--seed", "9", "--out", str(corpus))
    code, stdout, _ = _run(capsys, "stats", str(corpus))
    assert code == 0
    assert "Count" in stdout and "Share" in stdout
    total_line = [l for l in stdout.splitlines() if l.startswith("total")][0]
    assert "22" in total_line and "100.0%" in total_line


def test_stats_empty_corpus_fails(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code, _, stderr = _run(capsys, "stats", str(empty))
    assert code == 1
    assert "empty corpus" in stderr


def test_stats_missing_file_usage_error(tmp_path, capsys):
    code, _, _ = _run(capsys, "stats", str(tmp_path / "nope.jsonl"))
    assert code == 2


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# corpus settings\n"
        "count = 9\n"
        "seed = 13\n"
        "step_min = 7\n"
        "step_max = 9\n"
    )
    out = tmp_path / "c.jsonl"
    code, stdout, _ = _run(capsys, "synth", "--config", str(config),
                           "--count", "6", "--out", str(out))
    assert code == 0
    _, instances = __import__("counterchain").read_corpus(str(out))
    assert len(instances) == 6  # flag wins over file
    assert all(7 <= len(i.correct.steps) <= 9 for i in instances)


def test_weights_file_reshapes_distribution(tmp_path, capsys):
    weights = tmp_path / "w.cfg"
    lines = ["redundant_step = 5"]
    lines += [f"{e} = 1" for e in (
        "drop_condition", "implication_misuse", "or_and_confusion",
        "partial_evaluation", "xor_as_or", "xor_as_equiv",
        "vacuous_truth_error", "converse_error", "missing_prerequisite",
        "circular_reference")]
    weights.write_text("\n".join(lines) + "\n")
    out = tmp_path / "c.jsonl"
    code, _, _ = _run(capsys, "synth", "--count", "15", "--seed", "1",
                      "--weights", str(weights), "--out", str(out))
    assert code == 0
    _, instances = __import__("counterchain").read_corpus(str(out))
    counts = {}
    for inst in instances:
        counts[inst.error_type.value] = counts.get(inst.error_type.value, 0) + 1
    assert counts["redundant_step"] == 5  # 5/15 of the mass


def test_parse_kv_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ValueError):
        parse_kv_file(str(bad))


def test_unknown_flag_usage_error(capsys):
    assert _run(capsys, "synth", "--nope")[0] == 2


@pytest.mark.parametrize("workers", ["1", "2"])
def test_synth_exhaustion_exits_3_and_leaves_no_file(tmp_path, capsys, workers):
    config = tmp_path / "starved.cfg"
    config.write_text("max_facts = 3\nmax_attempts = 2\n")
    out = tmp_path / "c.jsonl"
    out.write_text("earlier corpus\n")
    code, _, stderr = _run(capsys, "synth", "--count", "5", "--config", str(config),
                           "--workers", workers, "--out", str(out))
    assert code == 3
    assert "exhausted" in stderr
    assert out.read_text() == "earlier corpus\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl", "starved.cfg"]


@pytest.mark.parametrize("line", ["step_mx = 9", "weight.xor_as_eqiv = 0"])
def test_unknown_config_key_is_usage_error(tmp_path, capsys, line):
    config = tmp_path / "typo.cfg"
    config.write_text(line + "\n")
    out = tmp_path / "c.jsonl"
    code, _, stderr = _run(capsys, "synth", "--count", "2", "--config", str(config),
                           "--out", str(out))
    assert code == 2
    assert line.split(" = ")[0] in stderr
    assert "valid keys" in stderr and "step_max" in stderr
    assert not out.exists()


def test_max_facts_over_the_prover_cap_is_usage_error(tmp_path, capsys):
    # chains this config builds have universes over the 24-fact cap; the
    # config is refused before any is built
    config = tmp_path / "wide.cfg"
    config.write_text("step_min = 12\nstep_max = 12\nmax_facts = 40\n"
                      "spare_impl_rules = 8\nside_min = 3\nside_max = 3\n")
    out = tmp_path / "c.jsonl"
    code, stdout, stderr = _run(capsys, "synth", "--count", "200", "--seed", "3",
                                "--config", str(config), "--out", str(out))
    assert code == 2
    assert "usage error" in stderr and "max_facts 40" in stderr
    assert stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["wide.cfg"]


def _flip(label: str) -> str:
    return "valid" if label == "invalid" else "invalid"


def _tamper_error_group(header, record):
    record["error_group"] = ("structural" if record["error_group"] == "truth_state"
                             else "truth_state")


def _tamper_correct_labels(header, record):
    record["correct_labels"][0] = _flip(record["correct_labels"][0])


def _tamper_erroneous_labels(header, record):
    k = record["first_error_index"]
    record["erroneous_labels"][k - 1] = _flip(record["erroneous_labels"][k - 1])


def _tamper_reached_goal_polarity(header, record):
    record["reached_goal_polarity"] = not record["reached_goal_polarity"]


_DERIVED_FIELDS = ("error_group", "correct_labels", "erroneous_labels",
                   "reached_goal_polarity")


def _null(field: str):
    def tamper(header, record):
        record[field] = None
    tamper.__name__ = f"_tamper_{field}_null"
    return tamper


def _tamper_total_count(header, record):
    header["total_count"] += 1


def _tamper_erroneous_steps(header, record):
    record["erroneous_steps"] = []


@pytest.mark.parametrize("tamper", [
    _tamper_error_group, _tamper_correct_labels, _tamper_erroneous_labels,
    _tamper_reached_goal_polarity, _tamper_total_count, _tamper_erroneous_steps,
    *map(_null, _DERIVED_FIELDS),
], ids=lambda f: f.__name__.removeprefix("_tamper_"))
def test_verify_rejects_tampered_stored_field(tmp_path, capsys, tamper):
    out = tmp_path / "c.jsonl"
    _run(capsys, "synth", "--count", "4", "--seed", "2", "--out", str(out))
    header, *records = [json.loads(l) for l in out.read_text().splitlines()]
    tamper(header, records[1])
    out.write_text("".join(json.dumps(o, separators=(",", ":")) + "\n"
                           for o in (header, *records)))
    code, _, _ = _run(capsys, "verify", str(out))
    assert code != 0


def _tamper_seed(records):
    records[1]["seed"] += 1


def _tamper_id(records):
    records[1]["id"] = records[0]["id"]


def _tamper_id_unnumbered(records):
    records[1]["id"] = "record-two"


def _tamper_nl_text(records):
    records[1]["nl"]["erroneous_steps"][0]["text"] += " Then again."


def _tamper_context(records):
    records[1]["context"]["name"] += "a"


def _tamper_context_without_nl(records):
    records[1]["nl"] = None


def _tamper_nl_mode(records):
    records[1]["nl"]["mode"] = "verbose"


def _tamper_stray_fact(records):
    records[1]["erroneous_steps"][0]["supports"][0] = "[F99]=True"


# tamper, whether it edits a realized file, and a part of the FAIL line
_REDERIVED = {
    "seed": (_tamper_seed, False, "stored seed"),
    "id-of-previous": (_tamper_id, False, "does not follow index 0"),
    "id-unnumbered": (_tamper_id_unnumbered, False, "id 'record-two' names no record index"),
    "nl-text": (_tamper_nl_text, True, "stored nl disagrees with its realization"),
    "context": (_tamper_context, True, "stored context disagrees with its realization"),
    "context-without-nl": (_tamper_context_without_nl, True, "stored context without nl"),
    "nl-mode": (_tamper_nl_mode, True,
                "cannot rebuild the stored nl: unknown nl mode: 'verbose'"),
    "stray-fact": (_tamper_stray_fact, True, "cannot rebuild the stored nl: [F99] is outside"),
}


@pytest.mark.parametrize("case", list(_REDERIVED))
def test_verify_rederives_id_seed_nl_and_context(tmp_path, capsys, case):
    """``verify`` re-derives a synth record's ``id`` and ``seed`` from the
    header seed and the index in the id, and a realized record's ``nl`` and
    ``context`` from its symbols: one edit to one record is one FAIL line."""
    tamper, realize, message = _REDERIVED[case]
    path = tmp_path / "c.jsonl"
    _run(capsys, "synth", "--count", "4", "--seed", "2", "--out", str(path))
    if realize:
        path = tmp_path / "r.jsonl"
        assert _run(capsys, "realize", str(tmp_path / "c.jsonl"), "--out", str(path))[0] == 0
    header, *records = [json.loads(l) for l in path.read_text().splitlines()]
    assert ("seed" in header) != realize
    tamper(records)
    _rewrite(path, header, records)
    code, stdout, _ = _run(capsys, "verify", str(path))
    assert code == 1
    fails = [l for l in stdout.splitlines() if l.startswith("FAIL")]
    assert len(fails) == 1 and fails[0].startswith(f"FAIL {records[1]['id']}: ")
    assert message in fails[0]


def test_verify_accepts_records_without_derived_fields(tmp_path, capsys):
    out = tmp_path / "c.jsonl"
    _run(capsys, "synth", "--count", "4", "--seed", "2", "--out", str(out))
    header, *records = [json.loads(l) for l in out.read_text().splitlines()]
    for record in records:
        for field in _DERIVED_FIELDS:
            del record[field]
    _rewrite(out, header, records)
    code, stdout, _ = _run(capsys, "verify", str(out))
    assert code == 0 and "verified 4 instances, 0 failures" in stdout


def test_header_detected_with_default_json_spacing(tmp_path, capsys):
    out = tmp_path / "c.jsonl"
    _run(capsys, "synth", "--count", "3", "--seed", "2", "--out", str(out))
    lines = out.read_text().splitlines()
    lines[0] = json.dumps(json.loads(lines[0]))
    out.write_text("\n".join(lines) + "\n")
    code, stdout, _ = _run(capsys, "verify", str(out))
    assert code == 0
    assert "verified 3 instances, 0 failures" in stdout


@pytest.mark.parametrize("command", ["synth", "realize", "eval"])
def test_unwritable_output_is_usage_error(tmp_path, capsys, command):
    corpus = tmp_path / "c.jsonl"
    assert _run(capsys, "synth", "--count", "2", "--seed", "5",
                "--out", str(corpus))[0] == 0
    target = str(tmp_path / "missing_dir" / "x.json")
    argv = {
        "synth": ["synth", "--count", "2", "--seed", "5", "--out", target],
        "realize": ["realize", str(corpus), "--out", target],
        "eval": ["eval", "--corpus", str(corpus), "--judge", "oracle",
                 "--report", target],
    }[command]
    code, _, stderr = _run(capsys, *argv)
    assert code == 2
    assert "cannot write" in stderr
    assert not list(tmp_path.rglob("*.tmp"))


def test_verify_reports_out_of_range_error_index_once(tmp_path, capsys):
    out = tmp_path / "c.jsonl"
    _run(capsys, "synth", "--count", "3", "--seed", "2", "--out", str(out))
    header, *records = [json.loads(l) for l in out.read_text().splitlines()]
    records[0]["first_error_index"] = len(records[0]["erroneous_steps"]) + 1
    out.write_text("".join(json.dumps(o, separators=(",", ":")) + "\n"
                           for o in (header, *records)))
    code, stdout, _ = _run(capsys, "verify", str(out))
    assert code == 1
    fails = [l for l in stdout.splitlines() if l.startswith("FAIL")]
    assert len(fails) == 1
    assert "out of range" in fails[0]
    assert "label vector" not in fails[0]


def _stray_conclusion(record):
    record["erroneous_steps"][record["first_error_index"] - 1]["conclusion"] = "[F99]=True"


def _stray_prefix_support(record):
    record["erroneous_steps"][0]["supports"][0] = "[F99]=True"


@pytest.mark.parametrize("tamper", [_stray_conclusion, _stray_prefix_support],
                         ids=["corrupted-conclusion", "prefix-support"])
def test_fact_outside_the_universe_fails_closed(tmp_path, capsys, tamper):
    """A stored step naming a fact the record's theory does not know is a
    per-record FAIL for ``verify``, an invalid step for ``eval`` and a usage
    error naming the record and the fact for ``realize``."""
    out = tmp_path / "c.jsonl"
    _run(capsys, "synth", "--count", "6", "--seed", "2", "--out", str(out))
    header, *records = [json.loads(l) for l in out.read_text().splitlines()]
    victim = next(r for r in records
                  if r["error_group"] == "truth_state" and r["first_error_index"] >= 2)
    tamper(victim)
    out.write_text("".join(json.dumps(o, separators=(",", ":")) + "\n"
                           for o in (header, *records)))

    code, stdout, _ = _run(capsys, "verify", str(out))
    assert code == 1
    fails = [l for l in stdout.splitlines() if l.startswith("FAIL")]
    assert len(fails) == 1 and fails[0].startswith(f"FAIL {victim['id']}:")
    assert "verified 6 instances, 1 failures" in stdout

    code, stdout, _ = _run(capsys, "eval", "--corpus", str(out), "--judge", "oracle")
    assert code == 0
    assert "n_instances = 6" in stdout

    realized = tmp_path / "r.jsonl"
    code, _, stderr = _run(capsys, "realize", str(out), "--out", str(realized))
    assert code == 2
    assert f"cannot realize {victim['id']}: [F99]" in stderr
    assert not realized.exists()
    assert not list(tmp_path.rglob("*.tmp"))


def test_cli_imports_without_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.modules['numpy'] = None; import counterchain.cli"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


def test_cli_import_leaves_the_process_pool_unloaded():
    # only ``synth --workers N`` with N > 1 starts a pool; every other command
    # should not pay for importing one
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, counterchain.cli\n"
         "print(sorted(m for m in ('concurrent.futures', 'multiprocessing')"
         " if m in sys.modules))"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["[]"]


def test_verify_into_a_closed_pipe_exits_1_without_a_traceback(tmp_path, capsys):
    """``verify CORPUS | head -1`` on a corpus whose records fail: the reader
    closes the pipe after one line, and ``verify`` exits 1 with nothing on
    stderr. The FAIL lines of 1,000 copies of one failing record (about
    350 kB) fill more than a pipe buffer."""
    one, corpus = tmp_path / "one.jsonl", tmp_path / "many.jsonl"
    assert main(["synth", "--count", "1", "--seed", "7", "--out", str(one)]) == 0
    capsys.readouterr()
    header, record = (json.loads(line) for line in one.read_text().splitlines())
    record["first_error_index"] += 1
    header["total_count"] = 1000
    _rewrite(corpus, header, [record] * 1000)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen([sys.executable, "-m", "counterchain.cli", "verify", str(corpus)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stdout.readline().startswith(b"FAIL 00000007-000000: ")
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=120)
    assert (proc.returncode, stderr) == (1, b"")


def _rewrite(path, header, records) -> None:
    path.write_text("".join(json.dumps(o, separators=(",", ":")) + "\n"
                            for o in (header, *records)))


@pytest.mark.parametrize("field, value", [
    ("goal", 5), ("base_facts", [None]), ("rules", [["x"]]),
], ids=["goal", "base_facts", "rules"])
@pytest.mark.parametrize("command", ["verify", "stats"])
def test_non_string_text_field_is_usage_error(tmp_path, capsys, command, field, value):
    out = tmp_path / "c.jsonl"
    _run(capsys, "synth", "--count", "3", "--seed", "2", "--out", str(out))
    header, *records = [json.loads(l) for l in out.read_text().splitlines()]
    records[1][field] = value
    _rewrite(out, header, records)
    code, _, stderr = _run(capsys, command, str(out))
    assert code == 2
    assert "cannot read corpus" in stderr
    assert "must be a string" in stderr
    assert "(line 3)" in stderr


def test_corpus_with_more_rule_texts_than_the_parse_memo_holds(tmp_path, capsys):
    # adding one offset to every fact index keeps each fact's order, so a
    # shifted record verifies as the original does; copies of a few records
    # shifted by different offsets carry more distinct rule texts than the
    # memo holds. Each copy gets the id and seed of its position in the file
    out = tmp_path / "c.jsonl"
    _run(capsys, "synth", "--count", "20", "--seed", "4", "--out", str(out))
    header, *originals = [json.loads(l) for l in out.read_text().splitlines()]
    distinct: set[str] = set()
    records = []
    offset = 0
    while len(distinct) <= PARSE_CACHE_SIZE:
        offset += 100
        for original in originals:
            line = re.sub(r"\[F(\d+)\]", lambda m: f"[F{int(m.group(1)) + offset}]",
                          json.dumps(original))
            record = json.loads(line)
            record["id"] = instance_id(header["seed"], len(records))
            record["seed"] = derive_seed(header["seed"], len(records))
            distinct.update(record["rules"])
            distinct.update(step["rule"] for step in record["erroneous_steps"])
            records.append(record)
    header["total_count"] = len(records)
    _rewrite(out, header, records)
    code, stdout, _ = _run(capsys, "verify", str(out))
    assert code == 0
    assert f"verified {len(records)} instances, 0 failures" in stdout


def test_read_side_output_bytes_pinned(tmp_path, capsys, monkeypatch):
    """``realize`` and ``eval --report`` write pure functions of the corpus
    (the 60-record one that test_generate_corpus_bytes_pinned[default] pins),
    so a change to the read side must keep these bytes. The corpus is named
    by a relative path because ``realize`` records it in its header."""
    monkeypatch.chdir(tmp_path)
    generate_corpus(CorpusConfig(total_count=60, seed=7), "c.jsonl")
    assert _run(capsys, "realize", "c.jsonl", "--out", "realized.jsonl",
                "--nl-mode", "clean")[0] == 0
    assert _run(capsys, "eval", "--corpus", "c.jsonl", "--include-correct",
                "--report", "report.json")[0] == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("realized.jsonl", "report.json")}
    assert digests == {
        "realized.jsonl":
            "290b1e160ce38f3ef2967aeefd99b3b6482a55e4e13b8611115028b51d28b996",
        "report.json":
            "98e4dc82fb49e87ca1edb6365bda13787c3c577f82858287ef8e15e235a1aac2",
    }


@pytest.fixture(scope="module")
def two_records(tmp_path_factory):
    """Header and records of a 2-record corpus, as JSON text."""
    path = tmp_path_factory.mktemp("two") / "c.jsonl"
    generate_corpus(CorpusConfig(total_count=2, seed=1), str(path))
    return path.read_text()


def _objects(text: str) -> tuple[dict, list[dict]]:
    header, *records = [json.loads(line) for line in text.splitlines()]
    return header, records


def _synth(config: str, flag: str = "--config"):
    def build(d, header, records):
        (d / "run.cfg").write_text(config)
        return ["synth", "--count", "2", "--seed", "1", flag, str(d / "run.cfg"),
                "--out", str(d / "out" / "c.jsonl")]
    return build


def _eval_input(flag: str, text: str):
    def build(d, header, records):
        (d / "input").write_text(text)
        return ["eval", flag, str(d / "input"), "--report", str(d / "out" / "r.json")]
    return build


def _corpus(command: str, tamper=None):
    """``command`` on the 2-record corpus after ``tamper(header, records)``;
    a tamper that returns bytes replaces the whole file."""
    def build(d, header, records):
        path = d / "c.jsonl"
        raw = tamper(header, records) if tamper else None
        if isinstance(raw, bytes):
            path.write_bytes(raw)
        else:
            _rewrite(path, header, records)
        return {
            "verify": ["verify", str(path)],
            "stats": ["stats", str(path)],
            "realize": ["realize", str(path), "--out", str(d / "out" / "r.jsonl")],
            "eval": ["eval", "--corpus", str(path), "--include-correct",
                     "--report", str(d / "out" / "r.json")],
        }[command]
    return build


def _with(build, *extra):
    """``build``'s argv with ``extra`` arguments appended."""
    return lambda d, header, records: [*build(d, header, records), *extra]


def _synth_workers(workers: str):
    return lambda d, header, records: [
        "synth", "--count", "2", "--seed", "1", "--workers", workers,
        "--out", str(d / "out" / "c.jsonl")]


def _not_utf8(header, records):
    return b"\xff\xfe\n"


def _short_correct_chain(header, records):
    record = next(r for r in records if len(r["erroneous_steps"]) >= 7)
    record["correct_steps"] = record["correct_steps"][:3]
    record["first_error_index"] = 7


def _set(field, value, which="record"):
    def tamper(header, records):
        (header if which == "header" else records[0])[field] = value
    return tamper


def _as_text(field):
    def tamper(header, records):
        records[0][field] = str(records[0][field])
    return tamper


def _corrupted_supports(supports):
    """Replace the supports of the corrupted step of the ``xor_as_or`` record,
    a truth-state type, by ``supports(record, step)``."""
    def tamper(header, records):
        record = next(r for r in records if r["error_type"] == "xor_as_or")
        step = record["erroneous_steps"][record["first_error_index"] - 1]
        step["supports"] = supports(record, step)
    return tamper


def _established_off_rule(record, step):
    """A base fact that the corrupted step's rule does not mention."""
    return [next(l for l in record["base_facts"] if l.split("=")[0] not in step["rule"])]


def _double_bracket_rule(header, records):
    records[0]["rules"][0] = records[0]["rules"][0].replace("[", "[[").replace("]", "]]")


def _padded_step_rule(header, records):
    records[0]["correct_steps"][0]["rule"] += " "


def _as_object(*path):
    """The list at ``path`` in the first record stored as an object keyed by
    its entries, which iterates as the same texts."""
    def tamper(header, records):
        *parents, last = path
        target = records[0]
        for key in parents:
            target = target[key]
        target[last] = dict.fromkeys(target[last], 0)
    return tamper


def _one_record_counted_true(header, records):
    # true == 1, so only a type check tells this header from a valid one
    del records[1:]
    header["total_count"] = True


def _universe_over_cap(header, records):
    records[0]["base_facts"] += [f"[F{i}]=True" for i in range(30, 45)]


# a record or header the reader refuses, and the start of the usage error
# every read command prints for it
_SCHEMA_VIOLATIONS = {
    "unknown-key": (_set("future", {"x": 1}), "unknown keys ['future']"),
    "id-null": (_set("id", None), "id None is not a non-empty string"),
    "id-int": (_set("id", 5), "id 5 is not a non-empty string"),
    "id-list": (_set("id", [1]), "id [1] is not a non-empty string"),
    "id-empty": (_set("id", ""), "id '' is not a non-empty string"),
    "context-zero": (_set("context", 0), "context 0 is not null or an object"),
    "context-list": (_set("context", []), "context [] is not null or an object"),
    "context-extra-key": (_set("context", {"name": "A", "background": "B", "age": "C"}),
                          "context {"),
    "nl-int": (_set("nl", 5), "nl must be null or an object, not int"),
    "header-seed-text": (_set("seed", "x", "header"), "header seed 'x' is not an integer"),
    "header-seed-over-int64": (_set("seed", 2 ** 63, "header"),
                               f"header seed {2 ** 63} is outside the signed 64-bit range"),
    "header-unknown-key": (_set("future", {"x": 1}, "header"),
                           "unknown header keys ['future'] (line 1)"),
    "header-config-digest-int": (_set("config_digest", 7, "header"),
                                 "header config_digest 7 is not a string (line 1)"),
    "header-nl-mode-unknown": (_set("nl_mode", "loud", "header"),
                               "header nl_mode 'loud' is not one of ['clean', 'annotated'] "
                               "(line 1)"),
    "universe-over-cap": (_universe_over_cap, "malformed instance record: universe of"),
}

_ALL_TEMPLATES_ZERO = "".join(f"template_weight.{t.value} = 0\n" for t in RuleTemplate)
_ERROR_TYPES = tuple(e.value for e in ErrorType)

# case -> (argv builder, exit code, stderr prefix or, for exit 1, a FAIL line part)
_BAD_INPUTS = {
    **{f"not-utf8-{c}": (_corpus(c, _not_utf8), 2, "cannot read corpus: 'utf-8' codec")
       for c in ("verify", "stats", "realize", "eval")},
    **{f"{case}-{c}": (_corpus(c, tamper), 2, f"cannot read corpus: {text}")
       for case, (tamper, text) in _SCHEMA_VIOLATIONS.items()
       for c in ("verify", "stats", "realize", "eval")},
    "synth-seed-over-int64": (lambda d, header, records: [
        "synth", "--count", "2", "--seed", str(2 ** 63), "--out", str(d / "out" / "c.jsonl")],
        2, f"usage error: seed {2 ** 63} is outside the signed 64-bit range"),
    "template-weights-all-zero": (_synth(_ALL_TEMPLATES_ZERO), 2, "usage error: "),
    "weights-all-zero-config": (
        _synth("".join(f"weight.{e} = 0\n" for e in _ERROR_TYPES)), 2, "usage error: "),
    "weights-all-zero-file": (
        _synth("".join(f"{e} = 0\n" for e in _ERROR_TYPES), "--weights"), 2,
        "usage error: "),
    "weight-nan": (_synth("weight.xor_as_or = nan\n"), 2, "usage error: "),
    "weight-inf": (_synth("xor_as_or = inf\n", "--weights"), 2, "usage error: "),
    "side-min-over-side-max": (_synth("side_min = 5\nside_max = 1\n"), 2,
                               "usage error: "),
    "k-first-zero": (_synth("k_first = 0\n"), 2, "usage error: "),
    "template-weight-negative": (_synth("template_weight.impl = -1\n"), 2,
                                 "usage error: template weights"),
    "p-fresh-nan": (_synth("p_fresh = nan\n"), 2, "usage error: p_fresh nan"),
    "p-cycle-slot-over-one": (_synth("p_cycle_slot = 7\n"), 2, "usage error: p_cycle_slot 7"),
    "side-min-negative": (_synth("side_min = -2\n"), 2, "usage error: side_steps (-2, 3)"),
    "spare-impl-rules-negative": (_synth("spare_impl_rules = -3\n"), 2,
                                  "usage error: spare_impl_rules -3"),
    "distractor-rules-negative": (_synth("distractor_rules = -1\n"), 2,
                                  "usage error: distractor_rules -1"),
    "min-useful-steps-negative": (_synth("min_useful_steps = -5\n"), 2,
                                  "usage error: min_useful_steps -5"),
    "workers-zero": (_synth_workers("0"), 2, "usage error: --workers 0 must be at least 1"),
    "workers-negative": (_synth_workers("-3"), 2,
                         "usage error: --workers -3 must be at least 1"),
    "threshold-nan": (_with(_corpus("eval"), "--threshold", "nan"), 2,
                      "usage error: --threshold nan must lie within [0, 1]"),
    "threshold-inf": (_with(_corpus("eval"), "--threshold", "inf"), 2,
                      "usage error: --threshold inf must lie within [0, 1]"),
    "threshold-over-one": (_with(_corpus("eval"), "--threshold", "1.5"), 2,
                           "usage error: --threshold 1.5 must lie within [0, 1]"),
    "judge-constant-nan": (_with(_corpus("eval"), "--judge", "constant:nan"), 2,
                           "usage error: constant judge score nan must lie within [0, 1]"),
    "judge-constant-inf-pools": (
        _with(_eval_input("--pools", '{"problems": [{"candidates": '
                                     '[{"step_scores": [0.5]}]}]}'),
              "--judge", "constant:inf"), 2,
        "usage error: constant judge score inf must lie within [0, 1]"),
    "pools-list": (_eval_input("--pools", "[1, 2]"), 2, "cannot read pools: "),
    "pools-problems-int": (_eval_input("--pools", '{"problems": 5}'), 2,
                           "cannot read pools: "),
    "scored-list": (_eval_input("--scored", "[1]\n"), 2, "cannot read scored records: "),
    "scored-string": (_eval_input("--scored", '"str"\n'), 2,
                      "cannot read scored records: "),
    "scored-no-steps": (_eval_input("--scored", '{"step_scores": [], "labels": []}\n'),
                        2, "cannot read scored records: "),
    "scored-index-text": (_eval_input(
        "--scored", '{"step_scores": [0.5], "labels": ["valid"], '
                    '"first_error_index": "x"}\n'), 2, "cannot read scored records: "),
    "correct-chain-shorter-than-k": (_corpus("verify", _short_correct_chain), 1,
                                     "prefix differs from the correct chain at step 4"),
    "correct-steps-empty": (_corpus("eval", _set("correct_steps", [])), 2,
                            "cannot read corpus: "),
    "rule-double-brackets": (_corpus("verify", _double_bracket_rule), 2,
                             "cannot read corpus: "),
    "step-rule-padded": (_corpus("realize", _padded_step_rule), 2, "cannot read corpus: "),
    "base-facts-object": (_corpus("verify", _as_object("base_facts")), 2,
                          "cannot read corpus: "),
    "rules-object": (_corpus("verify", _as_object("rules")), 2, "cannot read corpus: "),
    "supports-object": (_corpus("verify", _as_object("correct_steps", 0, "supports")), 2,
                        "cannot read corpus: "),
    "error-index-float": (_corpus("verify", _set("first_error_index", 2.5)), 2,
                          "cannot read corpus: "),
    "error-index-text": (_corpus("verify", _as_text("first_error_index")), 2,
                         "cannot read corpus: "),
    "error-index-padded": (_corpus("verify", _set("first_error_index", " 3 ")), 2,
                           "cannot read corpus: "),
    "seed-text": (_corpus("verify", _as_text("seed")), 2, "cannot read corpus: "),
    "total-count-float": (_corpus("verify", _set("total_count", 2.0, "header")), 2,
                          "cannot read corpus: "),
    "total-count-bool": (_corpus("verify", _one_record_counted_true), 2,
                         "cannot read corpus: "),
    "corrupted-supports-empty": (_corpus("verify", _corrupted_supports(lambda r, s: [])),
                                 1, "corrupted step cites no support"),
    "corrupted-support-stray": (
        _corpus("verify", _corrupted_supports(lambda r, s: ["[F99]=True"])), 1,
        "corrupted step cites a support not established"),
    "corrupted-support-off-rule": (
        _corpus("verify", _corrupted_supports(_established_off_rule)), 1,
        "corrupted step cites a support outside its rule"),
    "schema-version-true-header": (_corpus("verify", _set("schema_version", True, "header")),
                                   2, "cannot read corpus: schema_version True"),
    "schema-version-true-record": (_corpus("verify", _set("schema_version", True)), 2,
                                   "cannot read corpus: "),
    "stats-unwritable": (lambda d, header, records: [
        "synth", "--count", "2", "--seed", "1", "--out", str(d / "out" / "c.jsonl"),
        "--stats", str(d / "missing" / "x")], 2, "cannot write "),
}


@pytest.mark.parametrize("case", list(_BAD_INPUTS))
def test_bad_input_fails_closed(tmp_path, capsys, two_records, case):
    """Each input exits 2 with one stderr line and writes no output file, or,
    for a record ``verify`` can judge, is a per-record FAIL with exit 1."""
    build, expected, text = _BAD_INPUTS[case]
    (tmp_path / "out").mkdir()
    code, stdout, stderr = _run(capsys, *build(tmp_path, *_objects(two_records)))
    assert code == expected
    assert "Traceback" not in stderr
    if expected == 2:
        assert stderr.startswith(text) and stderr.count("\n") == 1, stderr
    else:
        fails = [l for l in stdout.splitlines() if l.startswith("FAIL")]
        assert len(fails) == 1 and text in fails[0]
    assert not list((tmp_path / "out").iterdir())
    assert not list(tmp_path.rglob("*.tmp"))


_MUTANTS = (None, 0, -1, 1.5, True, "", "x", [], [None], {}, "[F99]=True", 10 ** 9)


def _paths(obj, prefix=()):
    """Every field of ``obj``, nested ones included, as a key path."""
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def test_mutated_corpus_never_raises(tmp_path, capsys, two_records):
    """Replacing any one stored field with a value of another shape leaves
    every read command with exit 0, 1 or 2 and no exception."""
    rng = random.Random(1990)
    lines = _objects(two_records)
    paths = list(_paths([lines[0], *lines[1]]))
    corpus = tmp_path / "c.jsonl"
    commands = (["verify", str(corpus)], ["stats", str(corpus)],
                ["realize", str(corpus), "--out", str(tmp_path / "r.jsonl")],
                ["eval", "--corpus", str(corpus), "--include-correct"])
    for _ in range(300):
        objects = json.loads(json.dumps([lines[0], *lines[1]]))
        *parents, last = rng.choice(paths)
        target = objects
        for key in parents:
            target = target[key]
        target[last] = rng.choice(_MUTANTS)
        _rewrite(corpus, objects[0], objects[1:])
        for argv in commands:
            code, _, stderr = _run(capsys, *argv)
            assert code in (0, 1, 2), (argv, parents, last)
            assert "Traceback" not in stderr
