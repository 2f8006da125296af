#!/usr/bin/env python3
"""The corpus-bytes gate: a corpus is a pure function of (config, seed),
byte-identical across worker counts.

    python3 tools/bytes_gate.py [--count N] [--read]

Runs ``counterchain synth --count N`` (default 2000) into a temporary
directory for three workloads, seed 7 and seed 11 with the default config and
seed 7 with the wide one (``step_min = 10``, ``step_max = 12``,
``max_facts = 20``), each under ``--workers 1`` and ``--workers 2``. It uses
the ``src`` tree next to this script. Prints the sha256 of each corpus and of
its ``.stats`` file, one run per line, and exits 1 when the two worker counts
of a workload disagree on either file (or a run fails), else 0. Comparing the
printed digests with those of another checkout is the caller's part.

``--read`` also runs the read commands on each workload's ``--workers 1``
corpus: ``verify``, ``stats``, ``eval --include-correct --report``,
``realize`` in both NL modes, and ``verify`` of each realized file. It prints
each command's exit code, the sha256 of its stdout and of the file it wrote,
and exits 1 when a command exits non-zero. Every command runs in the
temporary directory on relative paths, so the ``realized_from`` header of a
realized file is the same in every checkout.

``--read`` then pins ``verify``'s FAIL text: it writes a tampered copy of each
``--workers 1`` corpus, the header and the first 12 records, where record i
gets edit ``i % 9`` of ``_tamper``, runs ``verify`` on it and prints the exit
code and the sha256 of its stdout. It exits 1 when that ``verify`` does not
exit 1 or does not print one FAIL line per tampered record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

WIDE_CONFIG = "step_min = 10\nstep_max = 12\nmax_facts = 20\n"

# name -> (seed, config text or None for the default config)
WORKLOADS = {
    "seed7": (7, None),
    "seed11": (11, None),
    "wide-seed7": (7, WIDE_CONFIG),
}
WORKERS = (1, 2)

# label, counterchain arguments, file written; {corpus} is the workload's
# --workers 1 corpus and {name} the workload's name
READS = (
    ("verify", ["verify", "{corpus}"], None),
    ("stats", ["stats", "{corpus}"], None),
    ("eval", ["eval", "--corpus", "{corpus}", "--include-correct",
              "--report", "{name}-report.json"], "{name}-report.json"),
    ("realize-clean", ["realize", "{corpus}", "--out", "{name}-clean.jsonl",
                       "--nl-mode", "clean"], "{name}-clean.jsonl"),
    ("realize-annotated", ["realize", "{corpus}", "--out", "{name}-annotated.jsonl",
                           "--nl-mode", "annotated"], "{name}-annotated.jsonl"),
    ("verify-clean", ["verify", "{name}-clean.jsonl"], None),
    ("verify-annotated", ["verify", "{name}-annotated.jsonl"], None),
)


# records in a tampered copy; record i gets edit i % EDITS of ``_tamper``
TAMPERED_RECORDS = 12
EDITS = 9

STRUCTURAL = ("converse_error", "redundant_step", "missing_prerequisite",
              "circular_reference")


def _negated(literal: str) -> str:
    fact, value = literal.split("=")
    return f"{fact}={'False' if value == 'True' else 'True'}"


def _relabelled(error_type: str) -> str:
    """Another type of the same group, and not the xor twin, which shares
    every corruption with ``xor_as_or`` where both apply."""
    if error_type in STRUCTURAL:
        return "redundant_step" if error_type == "converse_error" else "converse_error"
    return "drop_condition" if error_type == "implication_misuse" else "implication_misuse"


def _tamper(record: dict, edit: int, previous: dict) -> None:
    """Edit ``edit`` (0-8) of a record's JSON object: negate correct step 2's
    conclusion, drop correct step 3's first support, give correct step 2 the
    last rule, flip the first base fact, move k one step on, replace
    erroneous step k by correct step k, relabel the error type, add 1 to the
    seed, or give it the id of ``previous``, the record before it."""
    correct, k = record["correct_steps"], record["first_error_index"]
    if edit == 0:
        correct[1]["conclusion"] = _negated(correct[1]["conclusion"])
    elif edit == 1:
        del correct[2]["supports"][0]
    elif edit == 2:
        correct[1]["rule"] = record["rules"][-1]
    elif edit == 3:
        record["base_facts"][0] = _negated(record["base_facts"][0])
    elif edit == 4:
        record["first_error_index"] = k + 1
    elif edit == 5:
        record["erroneous_steps"][k - 1] = correct[k - 1]
    elif edit == 6:
        record["error_type"] = _relabelled(record["error_type"])
    elif edit == 7:
        record["seed"] += 1
    else:
        record["id"] = previous["id"]


def _tampered_copy(corpus: Path, out: Path) -> int:
    """Writes the header and the first ``TAMPERED_RECORDS`` records of
    ``corpus``, each record tampered, with the header's count set to match;
    returns the count of records."""
    header, *records = [json.loads(line) for line in
                        corpus.read_text(encoding="utf-8").splitlines()[:TAMPERED_RECORDS + 1]]
    header["total_count"] = len(records)
    for i, record in enumerate(records):
        _tamper(record, i % EDITS, records[i - 1])
    out.write_text("".join(json.dumps(obj, separators=(",", ":")) + "\n"
                           for obj in (header, *records)), encoding="utf-8")
    return len(records)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli(args: list[str], workdir: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "counterchain.cli", *args],
                          cwd=workdir, env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True)


def run(count: int, workdir: Path, read: bool = False) -> tuple[list[str], bool]:
    """The report lines and whether every workload agreed across workers
    (and, with ``read``, every read command exited 0)."""
    lines, ok = [], True
    for name, (seed, config) in WORKLOADS.items():
        digests = set()
        for workers in WORKERS:
            out = f"{name}-w{workers}.jsonl"
            args = ["synth", "--count", str(count), "--seed", str(seed),
                    "--workers", str(workers), "--out", out]
            if config is not None:
                (workdir / f"{name}.cfg").write_text(config, encoding="utf-8")
                args += ["--config", f"{name}.cfg"]
            done = _cli(args, workdir)
            if done.returncode != 0:
                lines.append(f"{name} workers={workers} FAILED (exit {done.returncode}): "
                             f"{done.stderr.decode(errors='replace').strip()[-300:]}")
                ok = False
                continue
            corpus, stats = _sha256(workdir / out), _sha256(workdir / f"{out}.stats")
            digests.add((corpus, stats))
            lines.append(f"{name} workers={workers} corpus {corpus} stats {stats}")
        if len(digests) != 1:
            lines.append(f"{name}: worker counts disagree")
            ok = False
        if read and (workdir / f"{name}-w1.jsonl").exists():
            for label, args, written in READS:
                done = _cli([a.format(corpus=f"{name}-w1.jsonl", name=name)
                             for a in args], workdir)
                line = (f"{name} {label} exit {done.returncode} "
                        f"stdout {hashlib.sha256(done.stdout).hexdigest()}")
                if written is not None and done.returncode == 0:
                    line += f" file {_sha256(workdir / written.format(name=name))}"
                lines.append(line)
                ok = ok and done.returncode == 0
            tampered = _tampered_copy(workdir / f"{name}-w1.jsonl",
                                      workdir / f"{name}-tampered.jsonl")
            done = _cli(["verify", f"{name}-tampered.jsonl"], workdir)
            lines.append(f"{name} verify-tampered exit {done.returncode} "
                         f"stdout {hashlib.sha256(done.stdout).hexdigest()}")
            failed = sum(line.startswith(b"FAIL ") for line in done.stdout.splitlines())
            if failed != tampered:
                lines.append(f"{name}: verify failed {failed} of {tampered} tampered records")
                ok = False
            ok = ok and done.returncode == 1
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=2000)
    parser.add_argument("--read", action="store_true",
                        help="also run the read commands on each --workers 1 corpus")
    args = parser.parse_args(argv)
    if args.count < 1:
        parser.error("--count must be at least 1")
    with tempfile.TemporaryDirectory(prefix="bytes-gate-") as tmp:
        lines, ok = run(args.count, Path(tmp), read=args.read)
    print("\n".join(lines))
    print("ok" if ok else "MISMATCH")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
