"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these out of the default test collection; they start a
few dozen short child processes.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

BENCH = run.load_benchmark()
END_TO_END = {m["name"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCH["per_layer"]}
TINY = 4


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    work = tmp_path_factory.mktemp("traced")
    return {name: run.run_workload(name, seed=3, seconds=0, trace=True,
                                   work=work, count=TINY)
            for name in run.WORKLOADS}


def test_benchmark_file_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert "setup_s" in END_TO_END


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    result = run.run_workload(name, seed=3, seconds=0, trace=False,
                              work=tmp_path, count=TINY)
    assert result.problems == []
    assert set(result.metrics) == END_TO_END
    assert all(value > 0 for value in result.metrics.values())
    assert result.digests and all(len(d) == 64 for d in result.digests.values())


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_traced_run_emits_every_per_layer_metric(traced, name):
    result = traced[name]
    # the traced/untraced byte comparison of each round's outputs is a check
    assert result.problems == []
    assert PER_LAYER <= set(result.metrics)


def test_parse_rule_runs_only_on_audit(traced):
    assert traced["synth-default"].metrics["logic.parse_rule.calls"] == 0
    assert traced["synth-wide"].metrics["logic.parse_rule.calls"] == 0
    assert traced["audit"].metrics["logic.parse_rule.calls"] > 0
    assert traced["audit"].metrics["synthesis.synthesize_chain.calls"] == 0


def test_traced_and_untraced_synth_write_identical_corpora(tmp_path):
    spec = run.Synth("synth-default", "", TINY, "")
    setup = spec.setup(tmp_path, random.Random(0))
    plain = spec.round(tmp_path, setup, 0, 11, "plain", None)
    spanned = spec.round(tmp_path, setup, 0, 11, "traced", tmp_path / "r0.spans")
    assert plain.problems == spanned.problems == []
    assert plain.outputs[0].read_bytes() == spanned.outputs[0].read_bytes()
    assert spanned.children[0].spans.is_file()


def test_flipped_first_error_index_trips_the_gate(tmp_path):
    spec = run.Audit("audit", "", TINY)
    setup = spec.setup(tmp_path, random.Random(0))
    assert setup.problems == []
    corpus = setup.inputs[0]
    lines = corpus.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    k, n = record["first_error_index"], len(record["erroneous_steps"])
    record["first_error_index"] = k + 1 if k < n else k - 1
    lines[1] = json.dumps(record, separators=(",", ":"))
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert spec.round(tmp_path, setup, 0, 0, "r0", None).problems


def test_main_prints_the_result_as_last_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, "synth-default",
                        run.Synth("synth-default", "", TINY, ""))
    monkeypatch.setattr(run, "WORK", tmp_path)
    code = run.main(["--workload", "synth-default", "--seconds", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == END_TO_END


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    here = Path(run.__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "audit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
