"""``prover.model_table`` keeps one table: every walk reads one theory's table
at a time, so memory stays at one table however many theories a process
sees, and each chain or record costs exactly one build. The slot columns are
kept for one table size at a time, however many sizes a process sees."""

from __future__ import annotations

from counterchain import CorpusConfig, generate_corpus

from .fixtures import python


def test_distinct_theories_at_the_cap_keep_memory_bounded():
    # 300 distinct 24-fact theories, 2 MB of rows each: a cache that kept
    # them all (or 256 of them) would peak above 500 MB
    out = python(
        "import itertools, resource\n"
        "from counterchain.logic import FactId, Rule, RuleTemplate\n"
        "from counterchain.prover import UNIVERSE_CAP, model_table, theory_for\n"
        "facts = [FactId(i) for i in range(UNIVERSE_CAP)]\n"
        "for pair in itertools.islice(itertools.permutations(facts, 2), 300):\n"
        "    model_table(theory_for([Rule(RuleTemplate.IMPL, pair)], facts))\n"
        "print(model_table.cache_info().misses,\n"
        "      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024)\n")
    misses, peak_mb = map(int, out.split())
    assert misses == 300
    assert peak_mb < 150


def test_tables_of_many_sizes_keep_one_size_of_columns():
    # cap-size tables with 0..5 facts fixed have 24..19 free facts. One
    # table with nothing fixed peaks at about 83 MB (48 MB of it columns),
    # and the switch to 23 free facts at 104 MB while both sizes are alive.
    # Columns kept for every size seen would add the 12 + 6 + 3 + 1.5 MB of
    # the smaller ones and peak at 118 MB.
    out = python(
        "import resource\n"
        "from counterchain.logic import FactId, Literal, Rule, RuleTemplate\n"
        "from counterchain.prover import UNIVERSE_CAP, model_table, theory_for\n"
        "facts = [FactId(i) for i in range(UNIVERSE_CAP)]\n"
        "theory = theory_for([Rule(RuleTemplate.IMPL, tuple(facts[:2]))], facts)\n"
        "for k in range(6):\n"
        "    fixed = tuple(Literal(f, True) for f in facts[UNIVERSE_CAP - k:])\n"
        "    assert len(model_table(theory, fixed).slots) == UNIVERSE_CAP - k\n"
        "print(model_table.cache_info().misses,\n"
        "      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024)\n")
    misses, peak_mb = map(int, out.split())
    assert misses == 6
    assert peak_mb < 112


def test_audit_builds_one_table_per_record(tmp_path):
    corpus = tmp_path / "c.jsonl"
    records = 20
    generate_corpus(CorpusConfig(total_count=records, seed=5), str(corpus))
    commands = [["verify", str(corpus)],
                ["eval", "--corpus", str(corpus), "--include-correct"]]
    out = python(
        "import contextlib, io\n"
        "from counterchain.cli import main\n"
        "from counterchain.prover import model_table\n"
        f"for argv in {commands!r}:\n"
        "    before = model_table.cache_info().misses\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0\n"
        "    print(model_table.cache_info().misses - before)\n")
    assert out.split() == [str(records)] * 2
