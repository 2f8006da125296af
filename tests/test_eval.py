from __future__ import annotations

import random

import pytest

from counterchain import (
    Candidate,
    CandidatePool,
    ConstantJudge,
    JudgeContext,
    LabelWordJudge,
    OracleJudge,
    all_step_accuracy,
    bestofk_select,
    evaluate_instances,
    evaluate_pools,
    first_error_accuracy,
    label_steps,
    majority_at_k,
    make_judge,
    oracle_at_k,
    predict_first_error,
)
from counterchain.evaluation import (
    all_step_macro,
    evaluate_scored_records,
    pools_from_obj,
    render_judge_prompt,
)

from . import fixtures
from .oracles import brute_best_of_k, brute_majority, brute_oracle_at_k


def test_oracle_scores_golden_instances():
    judge = OracleJudge()
    for inst in (fixtures.bakery_instance(), fixtures.navigator_instance()):
        context = JudgeContext.for_instance(inst)
        scores = judge.score_trajectory(context, inst.erroneous.steps)
        assert predict_first_error(scores) == inst.k
        gold = [l.label == "valid" for l in label_steps(inst).erroneous]
        assert [s >= 0.5 for s in scores] == gold
        correct_scores = judge.score_trajectory(context, inst.correct.steps)
        assert all(s == 1.0 for s in correct_scores)


def test_oracle_score_step_matches_trajectory_scoring():
    inst = fixtures.bakery_instance()
    judge = OracleJudge()
    context = JudgeContext.for_instance(inst)
    steps = inst.erroneous.steps
    per_call = [judge.score_step(context, steps[:i], steps[i])
                for i in range(len(steps))]
    assert per_call == judge.score_trajectory(context, steps)


def test_constant_judge_never_flags():
    report = evaluate_instances(
        [fixtures.bakery_instance(), fixtures.navigator_instance()],
        ConstantJudge(1.0))
    assert report.first_error_acc == 0.0


def test_judge_flagging_one_late_counts_incorrect():
    inst = fixtures.bakery_instance()

    class OffByOne:
        def score_trajectory(self, context, steps):
            return [0.0 if i == inst.k + 1 else 1.0
                    for i in range(1, len(steps) + 1)]

    report = evaluate_instances([inst], OffByOne())
    assert report.first_error_acc == 0.0


def test_first_error_accuracy_none_convention():
    assert first_error_accuracy([None, 3, None], [None, 3, 4]) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        first_error_accuracy([1], [1, 2])


def test_all_step_accuracy_arithmetic():
    pred = [[True, True, False, True, True, True]]
    gold = [[True, True, True, True, True, True]]
    assert all_step_accuracy(pred, gold) == pytest.approx(5 / 6)
    assert all_step_macro(pred, gold) == pytest.approx(5 / 6)


def test_running_report_equals_the_list_metrics_exactly():
    """The report folds trajectories into running counts; its figures must
    equal the list functions' on the same trajectories, to the last bit."""
    rng = random.Random(12)
    for trial in range(40):
        records = []
        for _ in range(rng.randint(0, 30)):
            n = rng.randint(1, 9)
            k = rng.choice([None, *range(1, n + 1)])
            records.append({
                "step_scores": [rng.choice([0.0, 0.2, 0.5, 0.7, 1.0]) for _ in range(n)],
                "labels": ["valid" if k is None or i < k else "invalid"
                           for i in range(1, n + 1)],
                "first_error_index": k,
            })
        threshold = rng.choice([0.3, 0.5, 0.8])
        report = evaluate_scored_records(records, threshold=threshold)
        scores = [r["step_scores"] for r in records]
        gold_rows = [[label == "valid" for label in r["labels"]] for r in records]
        predicted = [[s >= threshold for s in row] for row in scores]
        assert report.n_instances == len(records)
        assert report.first_error_acc == first_error_accuracy(
            [predict_first_error(row, threshold) for row in scores],
            [r["first_error_index"] for r in records])
        assert report.all_step_acc == all_step_accuracy(predicted, gold_rows)
        assert report.all_step_macro == all_step_macro(predicted, gold_rows)


def test_coin_flip_judge_near_half():
    rng = random.Random(404)

    class CoinFlip:
        def score_step(self, context, prefix, step):
            return rng.random()

    from counterchain import CorpusConfig
    from counterchain.dataset import build_instance, type_schedule
    cfg = CorpusConfig(total_count=60, seed=31)
    schedule = type_schedule(cfg)
    instances = [build_instance(cfg, i, schedule[i])[0] for i in range(60)]
    report = evaluate_instances(instances, CoinFlip(), erroneous_only=False)
    n_steps = sum(len(i.correct.steps) + len(i.erroneous.steps)
                  for i in instances)
    bound = 4 * 0.5 / n_steps ** 0.5
    assert abs(report.all_step_acc - 0.5) < bound


def test_evaluate_includes_correct_chains_when_asked():
    inst = fixtures.bakery_instance()
    report = evaluate_instances([inst], OracleJudge(), erroneous_only=False)
    assert report.first_error_acc == 1.0
    assert report.all_step_acc == 1.0
    assert report.per_type["missing_prerequisite"]["n"] == 2.0


def test_make_judge_specs():
    assert isinstance(make_judge("oracle"), OracleJudge)
    assert make_judge("constant:0.25").value == 0.25
    with pytest.raises(ValueError):
        make_judge("galaxy-brain")


def test_label_word_judge_adapter():
    judge = LabelWordJudge(lambda prompt: "true")
    inst = fixtures.bakery_instance()
    context = JudgeContext.for_instance(inst)
    assert judge.score_step(context, (), inst.correct.steps[0]) == 1.0
    judge = LabelWordJudge(lambda prompt: "False.")
    assert judge.score_step(context, (), inst.correct.steps[0]) == 0.0
    judge = LabelWordJudge(lambda prompt: "maybe")
    assert judge.score_step(context, (), inst.correct.steps[0]) == 0.5


def test_judge_prompt_carries_fields():
    inst = fixtures.bakery_instance()
    context = JudgeContext.for_instance(inst)
    bundle = render_judge_prompt(context, inst.correct.steps[:2],
                                 inst.correct.steps[2])
    text = bundle.text("user")
    for field in ("Goal:", "Initial Information:", "Previous Steps:",
                  "Current Step:", "Answer:"):
        assert field in text


def test_bestofk_min_rule_forced_choice():
    pool = CandidatePool((Candidate((0.9, 0.2)), Candidate((0.6, 0.5))))
    assert bestofk_select(pool) == 1


def test_bestofk_single_candidate():
    assert bestofk_select(CandidatePool((Candidate((0.4,)),))) == 0


def test_bestofk_tie_lowest_index():
    pool = CandidatePool((Candidate((0.5, 0.7)), Candidate((0.5, 0.9))))
    assert bestofk_select(pool) == 0


def test_majority_plurality_and_tiebreak():
    pool = CandidatePool(tuple(Candidate((1.0,), answer=a) for a in "ABA"))
    assert majority_at_k(pool) == "A"
    tied = CandidatePool(tuple(Candidate((1.0,), answer=a) for a in "BABA"))
    assert majority_at_k(tied) == "B"  # first answer to reach the top count


def test_oracle_at_k_any_correct():
    flags = [False, False, True, False]
    pool = CandidatePool(tuple(Candidate((1.0,), correct=f) for f in flags))
    assert oracle_at_k(pool) == 1
    none = CandidatePool(tuple(Candidate((1.0,), correct=False) for _ in range(3)))
    assert oracle_at_k(none) == 0


def test_selection_matches_brute_force_on_random_pools():
    rng = random.Random(99)
    for _ in range(2000):
        k = rng.randint(1, 8)
        candidates = tuple(
            Candidate(tuple(rng.random() for _ in range(rng.randint(1, 6))),
                      answer=rng.choice("ABCD"),
                      correct=rng.random() < 0.5)
            for _ in range(k))
        pool = CandidatePool(candidates)
        assert bestofk_select(pool) == brute_best_of_k(
            [c.step_scores for c in candidates])
        assert majority_at_k(pool) == brute_majority(
            [c.answer for c in candidates])
        assert oracle_at_k(pool) == brute_oracle_at_k(
            [c.correct for c in candidates])


def test_monotone_rescaling_keeps_selection():
    rng = random.Random(123)
    for _ in range(300):
        k = rng.randint(1, 8)
        candidates = tuple(
            Candidate(tuple(rng.random() for _ in range(rng.randint(1, 6))))
            for _ in range(k))
        pool = CandidatePool(candidates)
        rescaled = CandidatePool(tuple(
            Candidate(tuple(s ** 3 * 0.5 + 0.1 for s in c.step_scores))
            for c in candidates))
        assert bestofk_select(pool) == bestofk_select(rescaled)


def test_pool_rejects_out_of_range_scores():
    with pytest.raises(ValueError):
        CandidatePool((Candidate((1.2,)),))


def test_evaluate_pools_fixture():
    pools = pools_from_obj({"problems": [
        {"candidates": [
            {"step_scores": [0.9, 0.2], "answer": "A", "correct": False},
            {"step_scores": [0.6, 0.5], "answer": "B", "correct": True},
        ]},
        {"candidates": [
            {"step_scores": [0.8], "answer": "A", "correct": True},
            {"step_scores": [0.1], "answer": "A", "correct": True},
            {"step_scores": [0.9], "answer": "B", "correct": False},
        ]},
    ]})
    metrics = evaluate_pools(pools)
    # problem 1: mins 0.2 vs 0.5 pick B (correct); problem 2: mins 0.8, 0.1,
    # 0.9 pick the incorrect B
    assert metrics["bestofk_accuracy"] == 0.5
    # problem 1 ties A-B and falls to A (incorrect); problem 2 majority is A
    assert metrics["majority_accuracy"] == 0.5
    assert metrics["oracle_rate"] == 1.0


def test_empty_pool_rejected():
    with pytest.raises(ValueError):
        CandidatePool(())
    with pytest.raises(ValueError):
        evaluate_pools([])


def test_localization_needs_clean_prefix_bound():
    # a judge can only localize exactly when it scores every earlier step
    # as valid; verify the implied upper bound on generated instances
    from counterchain import CorpusConfig
    from counterchain.dataset import build_instance, type_schedule
    rng = random.Random(7)

    class Noisy:
        def score_step(self, context, prefix, step):
            return rng.random()

    cfg = CorpusConfig(total_count=40, seed=77)
    schedule = type_schedule(cfg)
    instances = [build_instance(cfg, i, schedule[i])[0] for i in range(40)]
    judge = Noisy()
    hits = 0
    clean_prefix = 0
    for inst in instances:
        context = JudgeContext.for_instance(inst)
        scores = [judge.score_step(context, inst.erroneous.steps[:i],
                                   inst.erroneous.steps[i])
                  for i in range(len(inst.erroneous.steps))]
        pred = predict_first_error(scores)
        hits += pred == inst.k
        clean_prefix += all(s >= 0.5 for s in scores[: inst.k - 1])
    assert hits <= clean_prefix
