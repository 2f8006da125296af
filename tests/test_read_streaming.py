"""The read commands stream the corpus: ``verify``, ``eval``, ``realize`` and
``stats`` hold one record at a time, so their memory does not grow with the
file, and the first fault in file order is the one they report. ``eval
--scored`` streams its scored-trajectory file the same way."""

from __future__ import annotations

import json
import random

import pytest

from counterchain import CorpusConfig, MalformedRecordError, generate_corpus, stream_corpus
from counterchain.cli import main
from counterchain.dataset import derive_seed, instance_id

from .fixtures import peak_rss_mb

COPIES = 25


def _argv(command: str, corpus, out_dir) -> list[str]:
    return {
        "verify": ["verify", str(corpus)],
        "eval": ["eval", "--corpus", str(corpus), "--include-correct",
                 "--report", str(out_dir / "report.json")],
        "realize": ["realize", str(corpus), "--out", str(out_dir / "realized.jsonl")],
        "stats": ["stats", str(corpus)],
    }[command]


def _write(path, header: dict, lines: list[str]) -> None:
    path.write_text(json.dumps(header, separators=(",", ":")) + "\n"
                    + "".join(line + "\n" for line in lines))


@pytest.fixture(scope="module")
def short_and_long(tmp_path_factory):
    """A 24-record corpus, and the same records repeated ``COPIES`` times,
    each copy with the id and seed of its position."""
    d = tmp_path_factory.mktemp("memory")
    short = d / "short.jsonl"
    generate_corpus(CorpusConfig(total_count=24, seed=3), str(short))
    header, *records = [json.loads(line) for line in short.read_text().splitlines()]
    copies = []
    for index, record in enumerate(records * COPIES):
        record = dict(record, id=instance_id(header["seed"], index),
                      seed=derive_seed(header["seed"], index))
        copies.append(json.dumps(record, separators=(",", ":")))
    header["total_count"] = len(copies)
    long = d / "long.jsonl"
    _write(long, header, copies)
    return short, long


@pytest.mark.parametrize("command", ["verify", "eval", "realize", "stats"])
def test_peak_memory_does_not_grow_with_the_corpus(short_and_long, tmp_path, command):
    # a command that kept every record (or every realized line, or a row per
    # trajectory) would add 3 to 13 MB over the 576 extra records
    short, long = short_and_long
    peaks = [peak_rss_mb("-m", "counterchain.cli", *_argv(command, corpus, tmp_path))
             for corpus in (short, long)]
    assert peaks[1] - peaks[0] < 2.0, peaks


SCORED_COPIES = 400


@pytest.fixture(scope="module")
def scored_short_and_long(tmp_path_factory):
    """24 scored trajectories, and the same ones repeated ``SCORED_COPIES``
    times."""
    rng = random.Random(13)
    lines = []
    for _ in range(24):
        n = rng.randint(6, 12)
        k = rng.choice([None, rng.randint(1, n)])
        labels = ["valid" if k is None or i < k else "invalid" for i in range(1, n + 1)]
        lines.append(json.dumps({"step_scores": [rng.random() for _ in range(n)],
                                 "labels": labels, "first_error_index": k}))
    d = tmp_path_factory.mktemp("scored")
    short, long = d / "short.jsonl", d / "long.jsonl"
    short.write_text("".join(line + "\n" for line in lines))
    long.write_text("".join(line + "\n" for line in lines * SCORED_COPIES))
    return short, long


def test_eval_scored_peak_memory_does_not_grow_with_the_file(scored_short_and_long):
    # a list of the 9,576 extra records adds about 14 MB
    peaks = [peak_rss_mb("-m", "counterchain.cli", "eval", "--scored", str(path))
             for path in scored_short_and_long]
    assert peaks[1] - peaks[0] < 2.0, peaks


def _stray_first_record(header, records):
    """The first record's first step cites a fact outside its universe:
    ``verify`` fails it and ``realize`` cannot phrase it."""
    records[0]["erroneous_steps"][0]["supports"] = ["[F99]=True"]


def _truncated_last(lines: list[str]) -> None:
    lines[-1] = lines[-1][:len(lines[-1]) // 2]


def _one_too_many(header: dict) -> None:
    header["total_count"] += 1


@pytest.mark.parametrize("tail", ["truncated-last-record", "total-count-off-by-one"])
@pytest.mark.parametrize("command", ["verify", "eval", "realize", "stats"])
def test_first_fault_in_file_order_fails_closed(tmp_path, capsys, command, tail):
    """The first record fails ``verify`` and names a fact ``realize`` cannot
    phrase; the file's end is bad. Each command exits 2 with one stderr line
    naming the first fault it reaches, leaves no output, and prints at most
    the per-record lines of the records before that fault."""
    corpus = tmp_path / "c.jsonl"
    generate_corpus(CorpusConfig(total_count=4, seed=2), str(corpus))
    header, *records = [json.loads(l) for l in corpus.read_text().splitlines()]
    _stray_first_record(header, records)
    lines = [json.dumps(r, separators=(",", ":")) for r in records]
    if tail == "truncated-last-record":
        _truncated_last(lines)
    else:
        _one_too_many(header)
    _write(corpus, header, lines)
    out_dir = tmp_path / "out"
    out_dir.mkdir()

    code = main(_argv(command, corpus, out_dir))
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err and captured.err.count("\n") == 1
    first = records[0]["id"]
    if command == "realize":
        assert captured.err.startswith(f"cannot realize {first}: [F99]")
    else:
        assert captured.err.startswith("cannot read corpus: ")
    if command == "verify":
        [line] = captured.out.splitlines()
        assert line.startswith(f"FAIL {first}:")
    else:
        assert captured.out == ""
    assert not list(out_dir.iterdir())
    assert not list(tmp_path.rglob("*.tmp"))


def test_stream_reads_the_header_first_and_checks_the_count_last(tmp_path):
    corpus = tmp_path / "c.jsonl"
    generate_corpus(CorpusConfig(total_count=3, seed=2), str(corpus))
    header, *records = corpus.read_text().splitlines()
    header = json.loads(header)
    header["total_count"] = 4
    _write(corpus, header, records)

    got, instances = stream_corpus(str(corpus))
    assert got == header
    assert [next(instances).id for _ in records] == \
        [json.loads(r)["id"] for r in records]
    with pytest.raises(MalformedRecordError, match="total_count 4 but 3"):
        next(instances)
