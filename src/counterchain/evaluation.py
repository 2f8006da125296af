"""Step-level judge evaluation: first-error localization, per-step accuracy,
and Best-of-K candidate selection.

A judge scores one step in [0, 1] given the problem context and the
trajectory prefix. The built-in oracle is prover-backed: a step scores 1.0
only if every step in its prefix is valid and the step itself is valid
against the replayed state, which matches the labeling convention that marks
the first corrupted step and everything after it negative.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Protocol, Sequence

from .dataset import label_steps
from .injection import Instance
from .logic import Literal, Rule
from .prover import Theory
from .realize import PromptBundle
from .synthesis import Prefix, Step


@dataclass(frozen=True)
class JudgeContext:
    goal: Literal
    base_facts: tuple[Literal, ...]
    rules: tuple[Rule, ...]
    theory: Theory

    @classmethod
    def for_instance(cls, inst: Instance) -> "JudgeContext":
        chain = inst.correct
        return cls(chain.goal, chain.base_facts, chain.rules, chain.theory())


class Judge(Protocol):
    def score_step(self, context: JudgeContext, prefix: Sequence[Step],
                   step: Step) -> float:  # pragma: no cover - protocol
        ...


class OracleJudge:
    """Prover-backed reference judge.

    A step is worth 1.0 iff the whole prefix replays as valid and the step
    itself is valid under the replayed state: supports previously derived,
    a licensed pattern instantiated, a fresh conclusion, and entailment of
    the conclusion from the prefix.
    """

    def score_trajectory(self, context: JudgeContext,
                         steps: Sequence[Step]) -> list[float]:
        valid = Prefix(context.theory, context.base_facts).replay(steps)
        return [1.0] * valid + [0.0] * (len(steps) - valid)

    def score_step(self, context: JudgeContext, prefix: Sequence[Step],
                   step: Step) -> float:
        return self.score_trajectory(context, (*prefix, step))[-1]


@dataclass(frozen=True)
class ConstantJudge:
    value: float

    def score_step(self, context: JudgeContext, prefix: Sequence[Step],
                   step: Step) -> float:
        return self.value


class LabelWordJudge:
    """Adapter for text-completion backends: maps the reply's label word to a
    score (default words: true/false)."""

    def __init__(self, complete: Callable[[str], str],
                 positive: str = "true", negative: str = "false"):
        self.complete = complete
        self.positive = positive
        self.negative = negative

    def score_step(self, context: JudgeContext, prefix: Sequence[Step],
                   step: Step) -> float:
        prompt = render_judge_prompt(context, prefix, step)
        reply = self.complete(prompt.text("user")).strip().lower()
        if reply.startswith(self.positive):
            return 1.0
        if reply.startswith(self.negative):
            return 0.0
        return 0.5


def render_judge_prompt(context: JudgeContext, prefix: Sequence[Step],
                        step: Step) -> PromptBundle:
    """Fielded scoring prompt: goal, initial information, previous steps,
    current step, answered by one label word."""
    initial = "; ".join(str(l) for l in context.base_facts)
    rules = "; ".join(str(r) for r in context.rules)
    previous = "\n".join(
        f"{i + 1}. {_step_text(s)}" for i, s in enumerate(prefix)) or "(none)"
    return PromptBundle((
        ("user",
         "Task: Decide whether the current reasoning step is logically "
         "sound.\n\n"
         f"Goal: {context.goal}\n\n"
         f"Initial Information: {initial}\nRules: {rules}\n\n"
         f"Previous Steps:\n{previous}\n\n"
         f"Current Step: {_step_text(step)}\n\n"
         "Answer:"),
    ))


def _step_text(step: Step) -> str:
    supports = ", ".join(str(l) for l in step.supports)
    return f"from {supports or '(nothing)'} via {step.rule} conclude {step.conclusion}"


# ---------------------------------------------------------------------------
# metrics


def predict_first_error(scores: Sequence[float],
                        threshold: float = 0.5) -> Optional[int]:
    """Earliest 1-based step scoring below threshold, or None."""
    for i, score in enumerate(scores, start=1):
        if score < threshold:
            return i
    return None


def first_error_accuracy(predictions: Sequence[Optional[int]],
                         gold: Sequence[Optional[int]]) -> float:
    """Exact-match rate on the first invalid position; trajectories without
    an error count as hits only on a None prediction."""
    if len(predictions) != len(gold):
        raise ValueError("prediction/gold length mismatch")
    if not gold:
        return 0.0
    return sum(p == g for p, g in zip(predictions, gold)) / len(gold)


def all_step_accuracy(predicted_labels: Sequence[Sequence[bool]],
                      gold_labels: Sequence[Sequence[bool]]) -> float:
    """Micro-average over every step of every trajectory; True means valid."""
    if len(predicted_labels) != len(gold_labels):
        raise ValueError("prediction/gold length mismatch")
    hits = total = 0
    for pred, gold in zip(predicted_labels, gold_labels):
        if len(pred) != len(gold):
            raise ValueError("per-trajectory label length mismatch")
        hits += sum(p == g for p, g in zip(pred, gold))
        total += len(gold)
    return hits / total if total else 0.0


def all_step_macro(predicted_labels: Sequence[Sequence[bool]],
                   gold_labels: Sequence[Sequence[bool]]) -> float:
    """Mean of per-trajectory step accuracies."""
    if not gold_labels:
        return 0.0
    per = [sum(p == g for p, g in zip(pred, gold)) / len(gold)
           for pred, gold in zip(predicted_labels, gold_labels)]
    return sum(per) / len(per)


@dataclass
class EvalReport:
    first_error_acc: float
    all_step_acc: float
    all_step_macro: float
    n_instances: int
    per_type: dict[str, dict[str, float]] = field(default_factory=dict)
    threshold: float = 0.5
    erroneous_only: bool = True

    def to_dict(self) -> dict:
        return {
            "first_error_acc": self.first_error_acc,
            "all_step_acc": self.all_step_acc,
            "all_step_macro": self.all_step_macro,
            "n_instances": self.n_instances,
            "threshold": self.threshold,
            "erroneous_only": self.erroneous_only,
            "per_type": self.per_type,
        }

    def to_text(self) -> str:
        lines = [
            f"n_instances = {self.n_instances}",
            f"first_error = {self.first_error_acc:.4f}",
            f"all_step = {self.all_step_acc:.4f}",
            f"all_step_macro = {self.all_step_macro:.4f}",
        ]
        for name in sorted(self.per_type):
            row = self.per_type[name]
            lines.append(f"type.{name} = n:{int(row['n'])} "
                         f"first_error:{row['first_error_acc']:.4f} "
                         f"all_step:{row['all_step_acc']:.4f}")
        return "\n".join(lines) + "\n"


def _judge_scores(judge, context: JudgeContext, steps: Sequence[Step]) -> list[float]:
    scorer = getattr(judge, "score_trajectory", None)
    if scorer is not None:
        return [float(s) for s in scorer(context, steps)]
    return [float(judge.score_step(context, steps[:i], steps[i]))
            for i in range(len(steps))]


@dataclass
class _Tally:
    """Running counts over scored trajectories. Its accuracies equal those
    of the list functions above bit for bit: the counts are integers, and
    ``macro_sum`` adds the per-trajectory rates left to right from zero as
    ``sum`` does."""
    trajectories: int = 0
    first_error_hits: int = 0
    step_hits: int = 0
    steps: int = 0
    macro_sum: float = 0.0

    def add(self, first_error_hit: bool, step_hits: int, steps: int) -> None:
        self.trajectories += 1
        self.first_error_hits += first_error_hit
        self.step_hits += step_hits
        self.steps += steps
        self.macro_sum += step_hits / steps

    def first_error_acc(self) -> float:
        return self.first_error_hits / self.trajectories if self.trajectories else 0.0

    def all_step_acc(self) -> float:
        return self.step_hits / self.steps if self.steps else 0.0


class _Scoreboard:
    """Metrics over scored trajectories, folded in one at a time, so memory
    holds a few counters per error type rather than a row per trajectory."""

    def __init__(self, threshold: float):
        self.threshold = threshold
        self.total = _Tally()
        self.by_type: dict[str, _Tally] = {}

    def add(self, scores: Sequence[float], gold_k: Optional[int],
            gold_row: Sequence[bool], error_type: str) -> None:
        """One trajectory: its step scores, gold first-error position, gold
        validity row and error type; an empty error type is left out of the
        per-type rows."""
        predicted = [s >= self.threshold for s in scores]
        if len(predicted) != len(gold_row):
            raise ValueError("per-trajectory label length mismatch")
        hit = predict_first_error(scores, self.threshold) == gold_k
        step_hits = sum(p == g for p, g in zip(predicted, gold_row))
        self.total.add(hit, step_hits, len(gold_row))
        if error_type:
            self.by_type.setdefault(error_type, _Tally()).add(
                hit, step_hits, len(gold_row))

    def report(self, n_instances: int, erroneous_only: bool = True) -> EvalReport:
        total = self.total
        return EvalReport(
            first_error_acc=total.first_error_acc(),
            all_step_acc=total.all_step_acc(),
            all_step_macro=(total.macro_sum / total.trajectories
                            if total.trajectories else 0.0),
            n_instances=n_instances,
            per_type={name: {"n": float(tally.trajectories),
                             "first_error_acc": tally.first_error_acc(),
                             "all_step_acc": tally.all_step_acc()}
                      for name, tally in sorted(self.by_type.items())},
            threshold=self.threshold,
            erroneous_only=erroneous_only,
        )


def evaluate_instances(instances: Iterable[Instance], judge,
                       threshold: float = 0.5,
                       erroneous_only: bool = True) -> EvalReport:
    """Scores each instance's erroneous chain, and its correct chain unless
    ``erroneous_only``; ``instances`` is read once, one at a time."""
    board = _Scoreboard(threshold)
    n_instances = 0
    for inst in instances:
        n_instances += 1
        context = JudgeContext.for_instance(inst)
        labels = label_steps(inst)
        trajectories = [(inst.erroneous.steps, inst.k,
                         [l.label == "valid" for l in labels.erroneous])]
        if not erroneous_only:
            trajectories.append((inst.correct.steps, None,
                                 [True] * len(inst.correct.steps)))
        for steps, gold_k, gold_row in trajectories:
            board.add(_judge_scores(judge, context, steps), gold_k, gold_row,
                      inst.error_type.value)
    return board.report(n_instances, erroneous_only)


def make_judge(spec: str) -> object:
    """Built-in judges by name: ``oracle`` or ``constant:<v>``, a score ``v``
    within [0, 1]."""
    if spec == "oracle":
        return OracleJudge()
    if spec.startswith("constant:"):
        value = float(spec.split(":", 1)[1])
        if not 0.0 <= value <= 1.0:  # NaN fails this too
            raise ValueError(f"constant judge score {value} must lie within [0, 1]")
        return ConstantJudge(value)
    raise ValueError(f"unknown judge spec: {spec!r}")


def evaluate_scored_records(records: Iterable[dict],
                            threshold: float = 0.5) -> EvalReport:
    """Metrics over externally scored trajectories, records of the shape
    ``load_scored_records`` checks: ``step_scores``, gold ``labels``
    (valid/invalid) and an integer ``first_error_index``, null if clean.
    ``records`` is read once, one at a time."""
    board = _Scoreboard(threshold)
    n_records = 0
    for record in records:
        n_records += 1
        board.add([float(s) for s in record["step_scores"]],
                  record.get("first_error_index"),
                  [label == "valid" for label in record["labels"]], "")
    return board.report(n_records)


def _check_scored(obj, where: str) -> None:
    """Raises ValueError unless ``evaluate_scored_records`` can score ``obj``."""
    if not isinstance(obj, dict):
        raise ValueError(f"not a record object{where}")
    scores, labels = obj.get("step_scores"), obj.get("labels")
    try:
        numbers = isinstance(scores, list) and bool([float(s) for s in scores])
    except (TypeError, ValueError, OverflowError):
        numbers = False
    if not numbers:
        raise ValueError(f"step_scores must be a non-empty list of numbers{where}")
    if not isinstance(labels, list) or len(labels) != len(scores):
        raise ValueError(f"step_scores and labels disagree in length{where}")
    gold_k = obj.get("first_error_index")
    if gold_k is not None and type(gold_k) is not int:
        raise ValueError(f"first_error_index {gold_k!r} is not an integer{where}")


def load_scored_records(path: str) -> Iterator[dict]:
    """Scored-trajectory records, one JSON object per line, yielded as they
    are read; a header record is skipped. Raises ValueError, when the
    iteration reaches it, on any record of another shape."""
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if isinstance(obj, dict) and obj.get("record") == "header":
                continue
            _check_scored(obj, f" (line {number})")
            yield obj


# ---------------------------------------------------------------------------
# Best-of-K


@dataclass(frozen=True)
class Candidate:
    step_scores: tuple[float, ...]
    answer: str = ""
    correct: bool = False


@dataclass(frozen=True)
class CandidatePool:
    candidates: tuple[Candidate, ...]

    def __post_init__(self):
        if not self.candidates:
            raise ValueError("pool must hold at least one candidate")
        for c in self.candidates:
            if not c.step_scores:
                raise ValueError("candidate without step scores")
            if any(not 0.0 <= s <= 1.0 for s in c.step_scores):
                raise ValueError("step scores must lie in [0, 1]")


def trajectory_score(candidate: Candidate) -> float:
    """Aggregate by the min rule: the weakest step decides."""
    return min(candidate.step_scores)


def bestofk_select(pool: CandidatePool) -> int:
    """Index of the highest min-aggregated candidate; lowest index on ties."""
    best_index = 0
    best = trajectory_score(pool.candidates[0])
    for i, candidate in enumerate(pool.candidates[1:], start=1):
        score = trajectory_score(candidate)
        if score > best:
            best, best_index = score, i
    return best_index


def majority_at_k(pool: CandidatePool) -> str:
    """Most frequent answer; the answer reaching the top count first wins ties."""
    answers = [candidate.answer for candidate in pool.candidates]
    return max(answers, key=answers.count)


def oracle_at_k(pool: CandidatePool) -> int:
    """1 iff any candidate is flagged correct."""
    return 1 if any(c.correct for c in pool.candidates) else 0


def pools_from_obj(obj: dict) -> list[CandidatePool]:
    """Candidate pools from ``{"problems": [{"candidates": [...]}, ...]}``;
    raises ValueError on any other shape."""
    try:
        pools = [CandidatePool(tuple(
            Candidate(step_scores=tuple(float(s) for s in cand["step_scores"]),
                      answer=str(cand.get("answer", "")),
                      correct=bool(cand.get("correct", False)))
            for cand in problem["candidates"]))
            for problem in obj["problems"]]
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed pools: {exc}") from exc
    if not pools:
        raise ValueError("no candidate pools")
    return pools


def load_pools(path: str) -> list[CandidatePool]:
    with open(path, "r", encoding="utf-8") as fh:
        return pools_from_obj(json.load(fh))


def evaluate_pools(pools: Sequence[CandidatePool]) -> dict[str, float]:
    if not pools:
        raise ValueError("no candidate pools")
    selected_correct = 0
    majority_correct = 0
    oracle_hits = 0
    for pool in pools:
        selected_correct += pool.candidates[bestofk_select(pool)].correct
        answer = majority_at_k(pool)
        majority_correct += any(
            c.correct and c.answer == answer for c in pool.candidates)
        oracle_hits += oracle_at_k(pool)
    n = len(pools)
    return {
        "n_problems": float(n),
        "bestofk_accuracy": selected_correct / n,
        "majority_accuracy": majority_correct / n,
        "oracle_rate": oracle_hits / n,
    }
