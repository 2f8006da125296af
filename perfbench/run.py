#!/usr/bin/env python3
"""Benchmark of the counterchain CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of the workloads below, or ``all`` to run each in turn from this
one process.  Every CLI command runs in a fresh child process
(``perfbench/child.py``, which does what the ``counterchain`` console script
does), one child at a time.  So per-process caches such as the 256-entry
``prover.model_table`` LRU start cold for each command, as they do for a user,
and each command's peak RSS is read from its own ``os.wait4`` rusage.

A workload repeats *rounds* of fixed work until ``--seconds`` have passed.
Round ``r`` draws its inputs from ``--seed`` alone, so a seed gives the same
inputs on every run:

synth-default  one ``synth --workers 1`` of 400 instances with the default
               config (7-10 steps, 16 facts): chain building, ``verify_chain``,
               ``applicable_errors``/``inject`` and table builds all count.
synth-wide     the same with ``step_min = 10``, ``step_max = 12`` and
               ``max_facts = 20``, 120 instances: prover table builds dominate.
audit          set-up writes three 400-instance default corpora with ``synth``;
               a round runs ``verify``, ``eval --include-correct --report``,
               ``realize --nl-mode clean`` and ``stats`` on one of them: the
               read side, where ``parse_rule`` and deserialization dominate and
               nothing is synthesized.

Parallel ``synth --workers N`` is left out: on a small machine it measures the
scheduler, and byte-identity across worker counts is a test of the program.

Every output is checked.  An operation is one instance handled by one command;
failed operations are each non-zero exit, each ``FAIL`` line of ``verify``, an
``eval`` report whose oracle ``first_error_acc`` or ``all_step_acc`` is not
exactly 1.0, each ``LEAK`` line of ``realize``, and a ``synth``/``stats`` total
that differs from the count asked for.  The synth workloads re-verify every
corpus they wrote, after the timed part.  Any failure is printed, makes
``correct`` false and the exit code 1.

End-to-end metrics (``--trace 0``): ``setup_s`` (median of the workload's
set-up steps: 15 cold imports of the CLI on the synth workloads, the three
corpus builds on audit), ``inst_per_s`` (median over rounds of the instances
taken through the round per second of its wall time; a median, so that a
slow spell on a shared host moves it little) and ``peak_rss_mb`` (median over
rounds of the largest peak RSS of a round's children).

Per-layer metrics (``--trace 1``): rounds alternate between untraced and traced
on the same inputs, and each pair's outputs must be byte-identical.  Traced
children record spans around the public functions of each layer (see
``child.py``).  Counts and self times are per round, averaged over the traced
rounds; ``*_per_instance`` ratios are per instance handled by one command;
``share.<layer>`` is the layer's self time as a share of traced round time
(the rest is interpreter start-up and import).
``trace.overhead_pct`` is the median ratio of traced to untraced round time
over the pairs, and the ``cli.<command>.*_per_s`` throughputs come from
untraced children.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SOURCE = ROOT / "src" / "counterchain"
WORK = ROOT / ".bench_work"

CHILD_TIMEOUT_S = 120.0
IMPORT_PROBES = 15
AUDIT_CORPORA = 3

WIDE_CONFIG = "step_min = 10\nstep_max = 12\nmax_facts = 20\n"

# stats-file rejection reasons reported by name; the rest are summed as "other"
REJECTION_REASONS = ("downstream-stuck", "no-applicable-site", "length-budget",
                     "infeasible")

LAYERS = ("cli", "logic", "prover", "synthesis", "injection", "dataset",
          "realize", "evaluation")

# spans reported as ``<span>.calls`` and ``<span>.self_s``
COUNTED_SPANS = (
    "logic.parse_rule", "prover.model_table", "prover.entails",
    "prover.count_models", "synthesis.synthesize_chain", "synthesis.verify_chain",
    "injection.applicable_errors", "injection.inject",
    "injection.verify_first_error", "dataset.serialize_instance",
    "dataset.deserialize_instance", "realize.realized", "realize.leak_lint",
    "evaluation.score_trajectory",
)

# command -> (per-layer throughput metric, work items per instance)
COMMAND_RATES = {
    "synth": ("cli.synth.inst_per_s", 1),
    "verify": ("cli.verify.inst_per_s", 1),
    "eval": ("cli.eval.traj_per_s", 2),  # --include-correct scores both chains
    "realize": ("cli.realize.inst_per_s", 1),
    "stats": ("cli.stats.inst_per_s", 1),
}


# ---------------------------------------------------------------------------
# children


@dataclass
class Child:
    command: str
    instances: int
    code: int
    wall_s: float
    rss_mb: float
    out: str
    err: str
    spans: Path | None = None


def run_child(args: list[str], cwd: Path, instances: int,
              spans: Path | None = None) -> Child:
    """Run one CLI command in a fresh interpreter and reap it with wait4."""
    argv = [sys.executable, str(CHILD)]
    if spans is not None:
        argv += ["--trace", str(spans)]
    argv += ["--", *args]
    with open(cwd / "child.out", "w+", encoding="utf-8") as out, \
            open(cwd / "child.err", "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(args[0], instances, proc.returncode, wall,
                     usage.ru_maxrss / 1024.0, out.read(), err.read(), spans)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def record_count(path: Path) -> int:
    """Instance records in a corpus file (every non-empty line but the header);
    -1 when the file is missing."""
    if not path.is_file():
        return -1
    with open(path, "r", encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip()) - 1


# ---------------------------------------------------------------------------
# output checks; each returns the problems found, one per failed operation


def _exit_problem(child: Child) -> list[str]:
    if child.code == 0:
        return []
    tail = child.err.strip().splitlines()[-1:] or ["no stderr"]
    return [f"{child.command} exited {child.code}: {tail[0]}"]


def check_synth(child: Child, corpus: Path, count: int) -> list[str]:
    problems = _exit_problem(child)
    if problems:
        return problems
    stats = read_stats(Path(str(corpus) + ".stats"))
    if stats.get("total") != count:
        problems.append(f"synth stats total {stats.get('total')} != {count}")
    if record_count(corpus) != count:
        problems.append(f"synth wrote {record_count(corpus)} records, "
                        f"asked for {count}")
    return problems


def check_verify(child: Child, count: int) -> list[str]:
    problems = [line for line in child.out.splitlines()
                if line.startswith("FAIL ")]
    if not problems:
        problems = _exit_problem(child)
    if not problems and f"verified {count} instances, 0 failures" not in child.out:
        problems.append(f"verify did not report {count} clean instances")
    return problems


def check_eval(child: Child, report: Path, count: int) -> list[str]:
    problems = _exit_problem(child)
    if problems:
        return problems
    try:
        corpus = json.loads(report.read_text(encoding="utf-8"))["corpus"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"eval report unreadable: {exc!r}"]
    for key in ("first_error_acc", "all_step_acc"):
        if corpus[key] != 1.0:
            problems.append(f"eval oracle {key} = {corpus[key]}, not 1.0")
    if corpus["n_instances"] != count:
        problems.append(f"eval scored {corpus['n_instances']} of {count}")
    return problems


def check_realize(child: Child, out: Path, count: int) -> list[str]:
    problems = [line for line in child.out.splitlines()
                if line.startswith("LEAK ")]
    if not problems:
        problems = _exit_problem(child)
    if not problems and record_count(out) != count:
        problems.append(f"realize wrote {record_count(out)} of {count} records")
    return problems


def check_stats(child: Child, count: int) -> list[str]:
    problems = _exit_problem(child)
    if problems:
        return problems
    totals = [line.split() for line in child.out.splitlines()
              if line.startswith("total ")]
    if not totals or totals[-1][1] != str(count):
        problems.append(f"stats total {totals[-1][1] if totals else None} "
                        f"!= {count}")
    return problems


def read_stats(path: Path) -> dict[str, int]:
    """The integer ``key = value`` lines of a ``synth`` stats file."""
    out: dict[str, int] = {}
    if not path.is_file():
        return out
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" = ")
        try:
            out[key] = int(value)
        except ValueError:
            continue
    return out


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Setup:
    samples: list[float]  # seconds taken by each set-up step
    problems: list[str]
    children: list[Child] = field(default_factory=list)
    inputs: list[Path] = field(default_factory=list)


@dataclass
class Round:
    children: list[Child]
    outputs: list[Path]  # files compared byte for byte across a traced pair
    problems: list[str] = field(default_factory=list)
    stats_files: list[Path] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.children)

    @property
    def instances(self) -> int:
        """Instances each command of the round handles."""
        return self.children[0].instances

    @property
    def operations(self) -> int:
        return sum(c.instances for c in self.children)


@dataclass(frozen=True)
class Synth:
    """Rounds of one ``synth --workers 1``, re-verified after the timed part."""

    name: str
    why: str
    count: int
    config: str

    def setup(self, ws: Path, rng: random.Random) -> Setup:
        """Cold imports of the CLI, the fixed cost of every command."""
        if self.config:
            (ws / "bench.cfg").write_text(self.config, encoding="utf-8")
        samples, problems = [], []
        for _ in range(IMPORT_PROBES):
            start = time.perf_counter()
            probe = subprocess.run(
                [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]);"
                 " import counterchain.cli", str(ROOT / "src")],
                cwd=ws, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S)
            samples.append(time.perf_counter() - start)
            if probe.returncode != 0:
                problems.append(f"import failed: {probe.stderr.strip()[-200:]}")
        return Setup(samples, problems)

    def round(self, ws: Path, setup: Setup, index: int, seed: int, tag: str,
              spans: Path | None) -> Round:
        corpus = ws / f"{tag}.jsonl"
        args = ["synth", "--count", str(self.count), "--seed", str(seed),
                "--workers", "1", "--out", str(corpus)]
        if self.config:
            args += ["--config", str(ws / "bench.cfg")]
        child = run_child(args, ws, self.count,
                          spans and spans.with_suffix(".synth.json"))
        stats = Path(str(corpus) + ".stats")
        return Round([child], [corpus, stats], check_synth(child, corpus, self.count),
                     [stats])

    def after(self, ws: Path, rounds: list[Round]) -> tuple[list[Child], list[str]]:
        """Re-verify every corpus the timed rounds wrote."""
        children, problems = [], []
        for rnd in rounds:
            corpus = rnd.outputs[0]
            if not corpus.is_file():
                continue
            child = run_child(["verify", str(corpus)], ws, self.count)
            children.append(child)
            problems += check_verify(child, self.count)
        return children, problems

    def digests(self, setup: Setup, rounds: list[Round]) -> dict[str, str]:
        return {rnd.outputs[0].name: sha256(rnd.outputs[0])
                for rnd in rounds if rnd.outputs[0].is_file()}


@dataclass(frozen=True)
class Audit:
    """Set-up writes corpora; rounds read one with verify, eval, realize, stats."""

    name: str
    why: str
    count: int

    def setup(self, ws: Path, rng: random.Random) -> Setup:
        """Write the input corpora with ``synth``."""
        setup = Setup([], [])
        for i in range(AUDIT_CORPORA):
            corpus = ws / f"input{i}.jsonl"
            child = run_child(["synth", "--count", str(self.count), "--seed",
                               str(rng.randrange(1, 2 ** 31)), "--workers", "1",
                               "--out", str(corpus)], ws, self.count)
            setup.samples.append(child.wall_s)
            setup.problems += check_synth(child, corpus, self.count)
            setup.children.append(child)
            setup.inputs.append(corpus)
        return setup

    def round(self, ws: Path, setup: Setup, index: int, seed: int, tag: str,
              spans: Path | None) -> Round:
        corpus = str(setup.inputs[index % len(setup.inputs)])
        report, realized = ws / f"{tag}.report.json", ws / f"{tag}.realized.jsonl"
        n = self.count

        def traced(command):
            return spans and spans.with_suffix(f".{command}.json")

        verify = run_child(["verify", corpus], ws, n, traced("verify"))
        evaluate = run_child(["eval", "--corpus", corpus, "--judge", "oracle",
                              "--include-correct", "--report", str(report)],
                             ws, n, traced("eval"))
        realize = run_child(["realize", corpus, "--out", str(realized),
                             "--nl-mode", "clean"], ws, n, traced("realize"))
        stats = run_child(["stats", corpus], ws, n, traced("stats"))
        problems = (check_verify(verify, n) + check_eval(evaluate, report, n)
                    + check_realize(realize, realized, n) + check_stats(stats, n))
        return Round([verify, evaluate, realize, stats], [report, realized],
                     problems)

    def after(self, ws: Path, rounds: list[Round]) -> tuple[list[Child], list[str]]:
        return [], []

    def digests(self, setup: Setup, rounds: list[Round]) -> dict[str, str]:
        return {c.name: sha256(c) for c in setup.inputs if c.is_file()}


WORKLOADS = {
    "synth-default": Synth(
        "synth-default",
        "default synth config: chain building, verify_chain, inject and table "
        "builds all count; generation-loop and hashing changes show here",
        count=400, config=""),
    "synth-wide": Synth(
        "synth-wide",
        "synth with 10-12 steps and up to 20 facts: prover table builds take "
        "most of the time, so prover changes show most here",
        count=120, config=WIDE_CONFIG),
    "audit": Audit(
        "audit",
        "verify, eval, realize and stats on stored corpora: parse_rule and "
        "deserialization dominate and nothing is synthesized",
        count=400),
}


# ---------------------------------------------------------------------------
# per-layer aggregation


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(rounds: list[Round]) -> dict[str, float]:
    """Per-layer numbers from the span files of the traced rounds."""
    calls: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    child_ns: dict[str, int] = {}
    outcomes: dict[tuple[str, str], int] = {}
    builds_ms: list[float] = []
    hits = misses = 0
    for child in (c for r in rounds for c in r.children):
        if child.spans is None or not child.spans.is_file():
            continue
        trace = json.loads(child.spans.read_text(encoding="utf-8"))
        hits += trace["model_table"]["hits"]
        misses += trace["model_table"]["misses"]
        spans = trace["spans"]
        for name, start, end, parent, outcome in spans:
            calls[name] = calls.get(name, 0) + 1
            total_ns[name] = total_ns.get(name, 0) + end - start
            if parent >= 0:
                pname = spans[parent][0]
                child_ns[pname] = child_ns.get(pname, 0) + end - start
            if outcome is not None:
                outcomes[name, outcome] = outcomes.get((name, outcome), 0) + 1
            if name == "dataset.build_instance":
                builds_ms.append((end - start) / 1e6)

    n_rounds = max(1, len(rounds))
    ops = max(1, sum(r.operations for r in rounds))

    def per_round(x: float) -> float:
        return x / n_rounds

    def self_s(name: str) -> float:
        return per_round((total_ns.get(name, 0) - child_ns.get(name, 0)) / 1e9)

    m: dict[str, float] = {"cli.self_s": self_s("cli.main")}
    wall_s = sum(r.wall_s for r in rounds)
    for layer in LAYERS:
        busy = sum(total_ns[n] - child_ns.get(n, 0) for n in total_ns
                   if n.split(".")[0] == layer)
        m[f"share.{layer}"] = 100.0 * busy / 1e9 / wall_s if wall_s else 0.0
    for span in COUNTED_SPANS:
        m[f"{span}.calls"] = per_round(calls.get(span, 0))
        m[f"{span}.self_s"] = self_s(span)
    m["logic.parse_rule.calls_per_instance"] = calls.get("logic.parse_rule", 0) / ops
    m["prover.model_table.builds"] = per_round(misses)
    m["prover.model_table.share"] = (100.0 * (total_ns.get("prover.model_table", 0)
                                              - child_ns.get("prover.model_table", 0))
                                     / 1e9 / wall_s if wall_s else 0.0)
    m["prover.model_table.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["prover.tables_per_instance"] = misses / ops
    chains = calls.get("synthesis.verify_chain", 0)
    rejected = outcomes.get(("synthesis.verify_chain", "rejected"), 0)
    m["synthesis.verify_chain.rejects"] = per_round(rejected)
    m["synthesis.candidate_reject_ratio"] = rejected / chains if chains else 0.0
    m["synthesis.chains_per_instance"] = calls.get("synthesis.synthesize_chain", 0) / ops
    m["injection.inject.downstream_stuck"] = per_round(
        outcomes.get(("injection.inject", "DownstreamStuck"), 0))
    m["injection.inject.infeasible"] = per_round(
        outcomes.get(("injection.inject", "InjectionInfeasible"), 0))
    m["injection.attempts_per_instance"] = calls.get("injection.inject", 0) / ops
    m["injection.verify_first_error.rejects"] = per_round(
        outcomes.get(("injection.verify_first_error", "rejected"), 0))
    m["dataset.build_instance.p50_ms"] = _percentile(builds_ms, 0.50)
    m["dataset.build_instance.p99_ms"] = _percentile(builds_ms, 0.99)

    reasons: dict[str, float] = {r: 0 for r in (*REJECTION_REASONS, "other")}
    for path in (p for r in rounds for p in r.stats_files):
        for key, value in read_stats(path).items():
            if key.startswith("rejected."):
                reason = key.removeprefix("rejected.")
                reason = reason if reason in REJECTION_REASONS else "other"
                reasons[reason] += value
    for reason, value in reasons.items():
        m[f"dataset.rejections.{reason}"] = per_round(value)
    return m


def command_rates(children: list[Child]) -> dict[str, float]:
    """Work items per second of each CLI command, over the given children."""
    out = {}
    for command, (metric, per_instance) in COMMAND_RATES.items():
        ran = [c for c in children if c.command == command and c.code == 0]
        wall = sum(c.wall_s for c in ran)
        out[metric] = sum(c.instances for c in ran) * per_instance / wall if wall else 0.0
    return out


# ---------------------------------------------------------------------------
# running a workload


@dataclass
class Result:
    workload: str
    metrics: dict[str, float]
    attempted: int
    problems: list[str]
    digests: dict[str, str]
    rates: dict[str, float]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work: Path | None = None, count: int | None = None) -> Result:
    """Set up, run rounds for ``seconds``, check every output, and measure.

    ``count`` overrides the workload's instances per round (for quick tests).
    """
    work = work or WORK
    spec = WORKLOADS[name]
    if count is not None:
        spec = dataclasses.replace(spec, count=count)
    work.mkdir(parents=True, exist_ok=True)
    ws = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work))
    try:
        return _run(spec, ws, seed, seconds, trace)
    finally:
        shutil.rmtree(ws, ignore_errors=True)


def _run(spec, ws: Path, seed: int, seconds: float, trace: bool) -> Result:
    rng = random.Random(f"{spec.name}:{seed}")
    setup = spec.setup(ws, rng)
    problems = list(setup.problems)
    attempted = sum(c.instances for c in setup.children)
    untraced: list[Round] = []
    traced: list[Round] = []
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        round_seed = rng.randrange(1, 2 ** 31)
        if not trace:
            untraced.append(spec.round(ws, setup, r, round_seed, f"r{r}", None))
        else:
            # alternate which side of the pair runs first
            sides = [("u", None), ("t", ws / f"r{r}.spans")]
            pair = {}
            for side, spans in (sides if r % 2 == 0 else sides[::-1]):
                pair[side] = spec.round(ws, setup, r, round_seed,
                                        f"r{r}{side}", spans)
            untraced.append(pair["u"])
            traced.append(pair["t"])
            for a, b in zip(pair["u"].outputs, pair["t"].outputs):
                if not (a.is_file() and b.is_file()) or a.read_bytes() != b.read_bytes():
                    problems.append(f"traced and untraced {a.name} differ")
        r += 1

    for rnd in untraced + traced:
        problems += rnd.problems
        attempted += rnd.operations
    digests = spec.digests(setup, untraced)
    checkers, check_problems = spec.after(ws, untraced)
    problems += check_problems
    attempted += sum(c.instances for c in checkers)

    untraced_children = [c for rnd in untraced for c in rnd.children]
    rates = command_rates(untraced_children + checkers + setup.children)
    if trace:
        metrics = layer_metrics(traced)
        metrics.update(rates)
        metrics["trace.overhead_pct"] = 100.0 * (statistics.median(
            t.wall_s / u.wall_s for t, u in zip(traced, untraced)) - 1.0)
    else:
        metrics = {
            "setup_s": statistics.median(setup.samples),
            "inst_per_s": statistics.median(
                rnd.instances / rnd.wall_s for rnd in untraced),
            "peak_rss_mb": statistics.median(
                max(c.rss_mb for c in rnd.children) for rnd in untraced),
        }
    return Result(spec.name, metrics, max(1, attempted), problems, digests, rates)


def environment() -> dict:
    try:
        import tomllib
        with open(ROOT / "pyproject.toml", "rb") as fh:
            deps = tomllib.load(fh)["project"].get("dependencies", [])
    except (ImportError, OSError, KeyError, ValueError):
        deps = None

    def version(dist: str):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    loc = sum(len(p.read_text(encoding="utf-8").splitlines())
              for p in sorted(SOURCE.glob("*.py")))
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "src_loc": loc, "runtime_dependencies": deps}


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def report(result: Result, units: dict[str, str]) -> None:
    print(f"== {result.workload}")
    for problem in result.problems:
        print(f"FAILED {problem}")
    for key in sorted(result.metrics):
        print(f"{key} = {result.metrics[key]:.6g} {units.get(key, '')}".rstrip())
    for key in sorted(result.rates):
        if key not in result.metrics:
            print(f"{key} = {result.rates[key]:.6g} (untraced)")
    print(f"error_rate = {len(result.problems) / result.attempted:.6g} "
          f"({len(result.problems)} of {result.attempted} operations)")
    for label, digest in result.digests.items():
        print(f"sha256 {label} {digest}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "cli.py").is_file():
        print(f"counterchain sources not found under {SOURCE.parent}",
              file=sys.stderr)
        return 2
    bench = load_benchmark()
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    print("environment " + json.dumps(environment(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names]
    for result in results:
        report(result, units)
        missing = sorted(set(units) - set(result.metrics))
        if missing:
            raise SystemExit(f"{result.workload} did not measure {missing}")

    attempted = sum(r.attempted for r in results)
    failed = sum(len(r.problems) for r in results)
    if len(results) == 1:
        metrics = {k: {"value": results[0].metrics[k], "unit": u}
                   for k, u in units.items()}
    else:
        metrics = {f"{r.workload}/{k}": {"value": r.metrics[k], "unit": u}
                   for r in results for k, u in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
