"""Run one counterchain CLI command in this process, optionally traced.

    python3 perfbench/child.py [--trace SPANS.json] -- <counterchain arguments>

Untraced, this does what the ``counterchain`` console script does: import
``counterchain.cli`` and exit with ``main(argv)``.

Traced, it first replaces each function in ``TARGETS`` with a wrapper that
records a span, then calls ``cli.main(argv)`` and, when the command ends,
writes every span to SPANS.json.  A function is replaced by identity in every
``counterchain.*`` module namespace that bound it: ``from .prover import
entails`` copies the name, so patching ``prover`` alone would miss callers.
Nothing under ``src/`` changes.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (module, attribute, predicate that marks a returned value as a rejection)
TARGETS = (
    ("cli", "main", None),
    ("logic", "parse_rule", None),
    ("prover", "model_table", None),
    ("prover", "entails", None),
    ("prover", "count_models", None),
    ("synthesis", "synthesize_chain", None),
    ("synthesis", "verify_chain", lambda report: not report.valid),
    ("injection", "applicable_errors", None),
    ("injection", "inject", None),
    ("injection", "verify_first_error", lambda report: not report.ok),
    ("dataset", "build_instance", None),
    ("dataset", "serialize_instance", None),
    ("dataset", "deserialize_instance", None),
    ("realize", "realized", None),
    ("realize", "leak_lint", None),
    ("evaluation", "OracleJudge.score_trajectory", None),
)


class Tracer:
    """Spans kept in memory as ``[name, start_ns, end_ns, parent, outcome]``.

    ``parent`` is the index of the enclosing span (-1 for a root) and
    ``outcome`` is None, ``"rejected"``, or the name of the exception raised.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, rejects):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if rejects is not None and rejects(result):
                span[4] = "rejected"
            return result

        return traced


def install(tracer: Tracer) -> dict:
    """Wrap every target; returns the original functions by span name."""
    import counterchain.cli  # noqa: F401  (imports every layer)

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "counterchain" or n.startswith("counterchain.")]
    originals = {}
    for module_name, attr, rejects in TARGETS:
        owner = sys.modules["counterchain." + module_name]
        span_name = f"{module_name}.{attr.rsplit('.', 1)[-1]}"
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            original = getattr(cls, method)
            setattr(cls, method, tracer.wrap(span_name, original, rejects))
        else:
            original = getattr(owner, attr)
            wrapped = tracer.wrap(span_name, original, rejects)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    setattr(module, key, wrapped)
        originals[span_name] = original
    return originals


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if trace_path is None:
        from counterchain.cli import main as cli_main
        return cli_main(argv)

    tracer = Tracer()
    originals = install(tracer)
    from counterchain import cli
    try:
        return cli.main(argv)
    finally:
        table = originals["prover.model_table"].cache_info()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"trace_id": os.path.basename(trace_path),
                       "argv": argv,
                       "model_table": {"hits": table.hits,
                                       "misses": table.misses},
                       "spans": tracer.spans}, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
