"""Hand-encoded golden instances: two full paired trajectories; and helpers
that run code in a fresh interpreter.

The bakery chain carries a missing-prerequisite corruption at position 4 (the
bridge step deriving [F5]=True is deleted and its consumer runs early); the
navigator chain flips its final xor conclusion at position 7 (the derived side
is given the same value as the known side instead of the opposite one).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from counterchain import (
    CorrectChain,
    ErroneousChain,
    ErrorType,
    Instance,
    Literal,
    Step,
    parse_literal,
    parse_rule,
)


def _step(index: int, supports: list[str], rule: str, conclusion: str) -> Step:
    return Step(
        index=index,
        supports=tuple(parse_literal(s) for s in supports),
        rule=parse_rule(rule),
        conclusion=parse_literal(conclusion),
    )


def _lits(*texts: str) -> tuple[Literal, ...]:
    return tuple(parse_literal(t) for t in texts)


def bakery_correct() -> CorrectChain:
    rules = tuple(parse_rule(r) for r in [
        "[F9] xor [F12]",
        "[F11] xor [F10]",
        "([F9] and [F8]) -> [F10]",
        "[F7] -> ([F8] or [F5])",
        "([F3] xor [F5]) -> [F6]",
        "([F3] or [F4]) -> [F1]",
        "([F0] and [F1]) -> [F2]",
    ])
    steps = (
        _step(1, ["[F12]=False"], "[F9] xor [F12]", "[F9]=True"),
        _step(2, ["[F11]=True"], "[F11] xor [F10]", "[F10]=False"),
        _step(3, ["[F9]=True", "[F10]=False"],
              "([F9] and [F8]) -> [F10]", "[F8]=False"),
        _step(4, ["[F7]=True", "[F8]=False"],
              "[F7] -> ([F8] or [F5])", "[F5]=True"),
        _step(5, ["[F5]=True", "[F6]=False"],
              "([F3] xor [F5]) -> [F6]", "[F3]=True"),
        _step(6, ["[F3]=True", "[F4]=False"],
              "([F3] or [F4]) -> [F1]", "[F1]=True"),
        _step(7, ["[F1]=True", "[F2]=False"],
              "([F0] and [F1]) -> [F2]", "[F0]=False"),
    )
    return CorrectChain(
        base_facts=_lits("[F12]=False", "[F11]=True", "[F7]=True",
                         "[F6]=False", "[F4]=False", "[F2]=False"),
        rules=rules,
        steps=steps,
        goal=parse_literal("[F0]=False"),
    )


def bakery_instance() -> Instance:
    correct = bakery_correct()
    steps = (
        correct.steps[0],
        correct.steps[1],
        correct.steps[2],
        _step(4, ["[F6]=False"], "([F3] xor [F5]) -> [F6]", "[F3]=True"),
        _step(5, ["[F3]=True", "[F4]=False"],
              "([F3] or [F4]) -> [F1]", "[F1]=True"),
        _step(6, ["[F1]=True", "[F2]=False"],
              "([F0] and [F1]) -> [F2]", "[F0]=False"),
    )
    erroneous = ErroneousChain(
        steps=steps,
        first_error_index=4,
        error_type=ErrorType.MISSING_PREREQUISITE,
    )
    return Instance(
        id="golden-bakery",
        correct=correct,
        erroneous=erroneous,
    )


def navigator_correct() -> CorrectChain:
    rules = tuple(parse_rule(r) for r in [
        "[F10] -> ([F11] and [F8])",
        "[F4] xor [F9]",
        "[F6] xor [F8]",
        "([F2] xor [F6]) -> [F7]",
        "([F4] and [F3]) -> [F5]",
        "([F2] or [F0]) -> [F3]",
        "[F0] xor [F1]",
    ])
    steps = (
        _step(1, ["[F10]=True"], "[F10] -> ([F11] and [F8])", "[F8]=True"),
        _step(2, ["[F9]=False"], "[F4] xor [F9]", "[F4]=True"),
        _step(3, ["[F8]=True"], "[F6] xor [F8]", "[F6]=False"),
        _step(4, ["[F6]=False", "[F7]=False"],
              "([F2] xor [F6]) -> [F7]", "[F2]=False"),
        _step(5, ["[F4]=True", "[F5]=False"],
              "([F4] and [F3]) -> [F5]", "[F3]=False"),
        _step(6, ["[F2]=False", "[F3]=False"],
              "([F2] or [F0]) -> [F3]", "[F0]=False"),
        _step(7, ["[F0]=False"], "[F0] xor [F1]", "[F1]=True"),
    )
    return CorrectChain(
        base_facts=_lits("[F10]=True", "[F9]=False", "[F7]=False", "[F5]=False"),
        rules=rules,
        steps=steps,
        goal=parse_literal("[F1]=True"),
    )


def navigator_instance() -> Instance:
    correct = navigator_correct()
    steps = correct.steps[:6] + (
        _step(7, ["[F0]=False"], "[F0] xor [F1]", "[F1]=False"),
    )
    erroneous = ErroneousChain(
        steps=steps,
        first_error_index=7,
        error_type=ErrorType.XOR_AS_EQUIV,
    )
    return Instance(
        id="golden-navigator",
        correct=correct,
        erroneous=erroneous,
    )


# ---------------------------------------------------------------------------
# fresh interpreters

SRC = Path(__file__).resolve().parents[1] / "src"


def _env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def python(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter, with cold caches."""
    result = subprocess.run(
        [sys.executable, "-c", code], env=_env(),
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def peak_rss_mb(*args: str) -> float:
    """Peak resident set size, in MB, of a fresh interpreter run with
    ``args``, read from ``os.wait4`` when it exits; it must exit 0.

    A forked child's peak starts at its parent's resident size, so the run
    is started by a small interpreter of its own, not by the test process.
    """
    out = python(
        "import os, subprocess, sys\n"
        f"proc = subprocess.Popen([sys.executable, *{args!r}],\n"
        "                        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)\n"
        "stderr = proc.stderr.read()\n"
        "_, status, usage = os.wait4(proc.pid, 0)\n"
        "proc.returncode = os.waitstatus_to_exitcode(status)\n"
        "if proc.returncode:\n"
        "    sys.exit(f'exit {proc.returncode}: {stderr.decode()}')\n"
        "print(usage.ru_maxrss)\n")
    return int(out) / 1024
