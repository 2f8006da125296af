#!/usr/bin/env python3
"""The corpus-bytes gate: a corpus is a pure function of (config, seed),
byte-identical across worker counts.

    python3 tools/bytes_gate.py [--count N]

Runs ``counterchain synth --count N`` (default 2000) into a temporary
directory for three workloads, seed 7 and seed 11 with the default config and
seed 7 with the wide one (``step_min = 10``, ``step_max = 12``,
``max_facts = 20``), each under ``--workers 1`` and ``--workers 2``. It uses
the ``src`` tree next to this script. Prints the sha256 of each corpus and of
its ``.stats`` file, one run per line, and exits 1 when the two worker counts
of a workload disagree on either file (or a run fails), else 0. Comparing the
printed digests with those of another checkout is the caller's part.
"""

from __future__ import annotations

import argparse
import hashlib
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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(count: int, workdir: Path) -> tuple[list[str], bool]:
    """The report lines and whether every workload agreed across workers."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    lines, ok = [], True
    for name, (seed, config) in WORKLOADS.items():
        digests = set()
        for workers in WORKERS:
            out = workdir / f"{name}-w{workers}.jsonl"
            argv = [sys.executable, "-m", "counterchain.cli", "synth", "--count",
                    str(count), "--seed", str(seed), "--workers", str(workers),
                    "--out", str(out)]
            if config is not None:
                cfg = workdir / f"{name}.cfg"
                cfg.write_text(config, encoding="utf-8")
                argv += ["--config", str(cfg)]
            done = subprocess.run(argv, env=env, capture_output=True, text=True)
            if done.returncode != 0:
                lines.append(f"{name} workers={workers} FAILED (exit "
                             f"{done.returncode}): {done.stderr.strip()[-300:]}")
                ok = False
                continue
            corpus, stats = _sha256(out), _sha256(Path(f"{out}.stats"))
            digests.add((corpus, stats))
            lines.append(f"{name} workers={workers} corpus {corpus} stats {stats}")
        if len(digests) != 1:
            lines.append(f"{name}: worker counts disagree")
            ok = False
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=2000)
    args = parser.parse_args(argv)
    if args.count < 1:
        parser.error("--count must be at least 1")
    with tempfile.TemporaryDirectory(prefix="bytes-gate-") as tmp:
        lines, ok = run(args.count, Path(tmp))
    print("\n".join(lines))
    print("ok" if ok else "MISMATCH")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
