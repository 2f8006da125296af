"""Command-line front end: synth, verify, realize, eval, stats.

Configuration lives in a flat ``key = value`` text file; command-line flags
override file values, and the effective configuration digest is embedded in
every output header. Exit codes: 0 success, 1 verification or lint failure,
2 usage error, 3 generation exhaustion; a reader that closes stdout early
ends the command with exit 1 and no traceback. A usage error (``UsageError``, one
stderr line from ``main``) is an unknown or invalid config value, an
unreadable or malformed corpus, pools or scored file (a corpus record with a
key outside its schema, or a field of another type, is malformed), an
unwritable output, or a record ``realize`` cannot phrase (a fact outside its
universe). ``verify`` re-derives every stored field: a record whose ``id``
or ``seed`` is not the one its header seed gives the index in its id, or
whose ``nl`` and ``context`` are not its offline realization, is a ``FAIL``
line. Outputs are moved into place only when the command succeeds, so a
failed command leaves no partial file; ``synth`` writes its corpus and stats
both or neither.

``verify``, ``realize``, ``eval --corpus`` and ``stats`` read the corpus one
record at a time (``dataset.stream_corpus``) and hold no more than the record
in hand and their running counts, so their memory does not grow with the
file. Each prints a record's ``FAIL`` or ``LEAK`` lines when it reaches the
record, so the first fault in file order ends the command, and stdout may
already hold the lines of the records before it.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import json
import os
import sys
from typing import Iterator, Optional, TextIO

from .dataset import (
    CorpusConfig,
    CorpusExhausted,
    DEFAULT_ERROR_WEIGHTS,
    SCHEMA_VERSION,
    generate_corpus,
    position_mismatches,
    serialize_instance,
    stored_field_mismatches,
    stream_corpus,
)
from .evaluation import (
    evaluate_instances,
    evaluate_pools,
    evaluate_scored_records,
    load_pools,
    load_scored_records,
    make_judge,
)
from .injection import ErrorType, Instance, verify_first_error
from .logic import RuleTemplate
from .realize import PredicateMapInvalid, leak_lint, realized, stored_text_mismatches
from .synthesis import SynthesisConfig, SynthesisExhausted, verify_chain

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3


class UsageError(Exception):
    """Bad input or an unwritable output: ``main`` prints it and exits 2."""


def parse_kv_file(path: str) -> dict[str, str]:
    """Flat config format: one ``key = value`` per line, ``#`` comments."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for number, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{number}: expected 'key = value'")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


_PLAIN_KEYS = (
    "count", "seed", "step_min", "step_max", "max_facts", "max_attempts",
    "p_fresh", "min_useful_steps", "side_min", "side_max", "spare_impl_rules",
    "p_cycle_slot", "distractor_rules", "k_first", "k_exclude_last",
)
_WEIGHT_KEYS = tuple(e.value for e in ErrorType) + \
    tuple(f"weight.{e.value}" for e in ErrorType)
_TEMPLATE_KEYS = tuple(f"template_weight.{t.value}" for t in RuleTemplate)


def _check_keys(kv: dict[str, str], path: str, valid: tuple[str, ...]) -> None:
    unknown = sorted(set(kv) - set(valid))
    if unknown:
        raise ValueError(f"{path}: unknown keys {', '.join(unknown)}; "
                         f"valid keys: {', '.join(valid)}")


@contextlib.contextmanager
def _atomic_path(path: str) -> Iterator[str]:
    """A scratch path beside ``path`` that is moved onto it only if the block
    completes. A device such as /dev/null is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        yield path
        return
    scratch = f"{path}.{os.getpid()}.tmp"
    try:
        yield scratch
        os.replace(scratch, path)
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)


@contextlib.contextmanager
def _reading(what: str) -> Iterator[None]:
    """An OSError or ValueError raised by a read in the block is a usage
    error, ``cannot read <what>: ...``."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read {what}: {exc}") from exc


def _corpus(path: str) -> tuple[Optional[dict], Iterator[Instance]]:
    """The corpus's header, read now, and its instances, read one at a time.
    A read error, at the header or at any record, surfaces as the usage error
    of ``_reading`` when the read reaches it; the caller's own errors pass
    untouched."""
    with _reading("corpus"):
        header, instances = stream_corpus(path)
    return header, _read_each(instances)


def _read_each(instances: Iterator[Instance]) -> Iterator[Instance]:
    with _reading("corpus"):
        yield from instances


@contextlib.contextmanager
def _writer(path: str) -> Iterator[TextIO]:
    """A text file that replaces ``path`` only if the block completes."""
    try:
        with _atomic_path(path) as out, open(out, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _flags_digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _as_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _weights_from_kv(kv: dict[str, str]) -> tuple[tuple[ErrorType, float], ...]:
    by_type = dict(DEFAULT_ERROR_WEIGHTS)
    for key, value in kv.items():
        name = key.removeprefix("weight.")
        try:
            etype = ErrorType(name)
        except ValueError:
            continue
        by_type[etype] = float(value)
    return tuple(by_type.items())


def _synthesis_from_kv(kv: dict[str, str]) -> SynthesisConfig:
    base = SynthesisConfig()
    templates = dict(base.template_weights)
    for key, value in kv.items():
        name = key.removeprefix("template_weight.")
        if name != key:
            templates[RuleTemplate(name)] = float(value)

    def get(key: str, cast, default):
        return cast(kv[key]) if key in kv else default

    return SynthesisConfig(
        step_count=(get("step_min", int, base.step_count[0]),
                    get("step_max", int, base.step_count[1])),
        template_weights=tuple(templates.items()),
        max_facts=get("max_facts", int, base.max_facts),
        max_attempts=get("max_attempts", int, base.max_attempts),
        p_fresh=get("p_fresh", float, base.p_fresh),
        min_useful_steps=get("min_useful_steps", int, base.min_useful_steps),
        side_steps=(get("side_min", int, base.side_steps[0]),
                    get("side_max", int, base.side_steps[1])),
        spare_impl_rules=get("spare_impl_rules", int, base.spare_impl_rules),
        p_cycle_slot=get("p_cycle_slot", float, base.p_cycle_slot),
        distractor_rules=get("distractor_rules", int, base.distractor_rules),
    )


def build_corpus_config(args) -> CorpusConfig:
    try:
        kv = parse_kv_file(args.config) if args.config else {}
        _check_keys(kv, args.config, _PLAIN_KEYS + _WEIGHT_KEYS + _TEMPLATE_KEYS)
        weights = _weights_from_kv(kv)
        if args.weights:
            weight_kv = parse_kv_file(args.weights)
            _check_keys(weight_kv, args.weights, _WEIGHT_KEYS)
            weights = _weights_from_kv(weight_kv)
        count = args.count if args.count is not None else int(kv.get("count", "100"))
        seed = args.seed if args.seed is not None else int(kv.get("seed", "0"))
        return CorpusConfig(
            total_count=count,
            seed=seed,
            error_weights=weights,
            synthesis=_synthesis_from_kv(kv),
            k_first=int(kv.get("k_first", "2")),
            k_exclude_last=_as_bool(kv.get("k_exclude_last", "true")),
        )
    except (ValueError, OSError) as exc:
        raise UsageError(f"usage error: {exc}") from exc


def cmd_synth(args) -> int:
    if args.workers < 1:
        raise UsageError(f"usage error: --workers {args.workers} must be at least 1")
    cfg = build_corpus_config(args)
    print(f"# seed = {cfg.seed}")
    print(f"# count = {cfg.total_count}")
    print(f"# workers = {args.workers}")
    print(f"# config_digest = {cfg.digest()}")
    stats_path = args.stats or args.out + ".stats"
    try:
        # the corpus is moved into place only after the stats file has landed
        with _atomic_path(args.out) as out:
            stats = generate_corpus(cfg, out, workers=args.workers)
            with _writer(stats_path) as fh:
                fh.write(f"config_digest = {cfg.digest()}\n")
                fh.write(f"schema_version = {SCHEMA_VERSION}\n")
                fh.write(stats.to_text())
    except (CorpusExhausted, SynthesisExhausted) as exc:
        print(f"exhausted: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc}") from exc
    print(f"wrote {stats.total} instances to {args.out}")
    print(f"stats in {stats_path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    count = failures = 0
    header, instances = _corpus(args.corpus)
    # a header without a seed (a realized file, a hand-built one) names no
    # record positions to check
    corpus_seed = header.get("seed") if header else None
    previous = -1
    for inst in instances:
        count += 1
        problems = [*verify_chain(inst.correct).failures,
                    *verify_first_error(inst).failures,
                    *stored_field_mismatches(inst),
                    *stored_text_mismatches(inst)]
        if corpus_seed is not None:
            misplaced, previous = position_mismatches(inst, corpus_seed, previous)
            problems += misplaced
        if problems:
            failures += 1
            print(f"FAIL {inst.id}: {'; '.join(problems)}")
    print(f"verified {count} instances, {failures} failures")
    return EXIT_FAILED if failures else EXIT_OK


def cmd_realize(args) -> int:
    count = violations_total = 0
    with _writer(args.out) as fh:
        fh.write(json.dumps({"record": "header", "schema_version": SCHEMA_VERSION,
                             "realized_from": args.corpus,
                             "nl_mode": args.nl_mode,
                             "config_digest": _flags_digest("realize", args.nl_mode)},
                            separators=(",", ":")) + "\n")
        for inst in _corpus(args.corpus)[1]:
            try:
                inst = realized(inst, nl_mode=args.nl_mode)
            except PredicateMapInvalid as exc:
                raise UsageError(f"cannot realize {inst.id}: {exc}") from exc
            violations = leak_lint(inst.nl, inst.k)
            for v in violations:
                print(f"LEAK {inst.id} step {v.step_index}: {v.word!r}")
            violations_total += len(violations)
            fh.write(serialize_instance(inst) + "\n")
            count += 1
    print(f"realized {count} instances to {args.out}; "
          f"{violations_total} lint violations")
    return EXIT_FAILED if violations_total and args.nl_mode == "clean" else EXIT_OK


def cmd_eval(args) -> int:
    if not args.corpus and not args.pools and not args.scored:
        raise UsageError("nothing to evaluate: pass --corpus, --scored, and/or --pools")
    if not 0.0 <= args.threshold <= 1.0:  # NaN fails this too
        raise UsageError(f"usage error: --threshold {args.threshold} must lie within [0, 1]")
    try:
        judge = make_judge(args.judge)
    except ValueError as exc:
        raise UsageError(f"usage error: {exc}") from exc
    report_obj: dict = {
        "schema_version": 1,
        "config_digest": _flags_digest("eval", args.judge, args.threshold,
                                       args.include_correct),
    }
    if args.corpus:
        report = evaluate_instances(_corpus(args.corpus)[1], judge,
                                    threshold=args.threshold,
                                    erroneous_only=not args.include_correct)
        print(report.to_text(), end="")
        report_obj["corpus"] = report.to_dict()
        report_obj["judge"] = args.judge
    if args.scored:
        with _reading("scored records"):
            scored = evaluate_scored_records(load_scored_records(args.scored),
                                             threshold=args.threshold)
        print(scored.to_text(), end="")
        report_obj["scored"] = scored.to_dict()
    if args.pools:
        with _reading("pools"):
            pools = load_pools(args.pools)
        pool_metrics = evaluate_pools(pools)
        for key in sorted(pool_metrics):
            print(f"{key} = {pool_metrics[key]:.4f}")
        report_obj["pools"] = pool_metrics
    if args.report:
        with _writer(args.report) as fh:
            json.dump(report_obj, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    return EXIT_OK


def cmd_stats(args) -> int:
    counts = collections.Counter(inst.error_type.value
                                 for inst in _corpus(args.corpus)[1])
    total = sum(counts.values())
    if not total:
        print("empty corpus", file=sys.stderr)
        return EXIT_FAILED
    width = max(len(n) for n in counts)
    print(f"{'Error Type'.ljust(width)}  Count  Share")
    for name in sorted(counts, key=lambda n: -counts[n]):
        share = 100.0 * counts[name] / total
        print(f"{name.ljust(width)}  {counts[name]:5d}  {share:5.1f}%")
    print(f"{'total'.ljust(width)}  {total:5d}  100.0%")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="counterchain",
        description="Paired correct/corrupted reasoning chains with verified "
                    "first-error positions.")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a corpus")
    synth.add_argument("--count", type=int, default=None)
    synth.add_argument("--seed", type=int, default=None)
    synth.add_argument("--config", default=None, help="flat key=value file")
    synth.add_argument("--weights", default=None,
                       help="error-weight key=value file")
    synth.add_argument("--out", required=True)
    synth.add_argument("--stats", default=None)
    synth.add_argument("--workers", type=int, default=1)
    synth.set_defaults(func=cmd_synth)

    verify = sub.add_parser("verify", help="re-verify a corpus file")
    verify.add_argument("corpus")
    verify.set_defaults(func=cmd_verify)

    realize_cmd = sub.add_parser("realize", help="attach natural language")
    realize_cmd.add_argument("corpus")
    realize_cmd.add_argument("--out", required=True)
    realize_cmd.add_argument("--nl-mode", choices=("clean", "annotated"),
                             default="clean")
    realize_cmd.set_defaults(func=cmd_realize)

    evaluate = sub.add_parser("eval", help="score a judge and/or pools")
    evaluate.add_argument("--corpus", default=None)
    evaluate.add_argument("--judge", default="oracle")
    evaluate.add_argument("--threshold", type=float, default=0.5)
    evaluate.add_argument("--include-correct", action="store_true")
    evaluate.add_argument("--scored", default=None,
                          help="externally scored trajectory file")
    evaluate.add_argument("--pools", default=None)
    evaluate.add_argument("--report", default=None)
    evaluate.set_defaults(func=cmd_eval)

    stats = sub.add_parser("stats", help="error-type distribution of a corpus")
    stats.add_argument("corpus")
    stats.set_defaults(func=cmd_stats)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:  # the reader closed stdout: devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
